(* serve-miss and serve-hot: the daemon serving the re-anchor instance
   from a binary snapshot, driven by one closed-loop client connection
   per codec (JSON and binary), each waiting for its reply before it
   sends the next request.

   Request [i] of the seeded sequence is fixed by the seed and [i]
   alone (a write by [i] alone, see [Fixture.write_seed]): even indices
   go out on the JSON connection, odd ones on the binary connection.  [Mutate] writes are placed by index, never by
   wall clock: [warm_writes] of them early in the warm-up, then one in
   every [write_every] requests. *)

module V1 = Api.V1
module G = Sparse_graph.Graph

type kind = Miss | Hot

type plan = {
  warm : int;  (** requests before the first measured pass *)
  warm_writes : int;  (** writes in the first part of the warm-up *)
  warm_every : int;  (** their spacing *)
  pass : int;  (** requests per pass: the fixed work [wall_s] times *)
  pass_s : float;  (** a pass's expected seconds, which sizes a run *)
  write_every : int;  (** spacing of the measured writes *)
  hot : int;  (** hot-set size (serve-hot) *)
  verify_every : int;  (** two route replies in this many are checked byte for byte *)
}

(* Sizing (see README.md, "Mode boundaries"):
   - serve-miss: ~2% of uniform pairs are disconnected, each ~50x a
     connected route, so p99 sits inside the disconnected mode, well
     above the 1% boundary.  The pairs are stratified on connectivity
     (see [Fixture.stratified_pair]): a pass's wall would otherwise
     swing with its binomial count of disconnected pairs.
   - serve-hot: a write every 16384 requests re-warms a 16-pair hot
     set, so misses are ~0.1% of requests, well below 1%: p99 stays in
     the hit mode.
   - Both: a write's cost climbs over the first ~10 epochs, while the
     overlay's dropped-edge table fills, and then levels off.  The 16
     warm-up writes take that climb out of write_p50_ms; otherwise the
     median sat on the slope, wherever the scripts put it.  The
     warm-up ends with reads, so the hot set is warm again when the
     first pass starts. *)
let plan_of = function
  | Miss ->
      { warm = 512; warm_writes = 16; warm_every = 16; pass = 1024; pass_s = 3.4; write_every = 256;
        hot = 0; verify_every = 32 }
  | Hot ->
      { warm = 2048; warm_writes = 16; warm_every = 64; pass = 32768; pass_s = 1.7;
        write_every = 16384; hot = 16; verify_every = 512 }

(* A run's request count is fixed by its length, never by the clock. *)
let passes_for plan ~seconds = max 2 (int_of_float (seconds /. plan.pass_s))

let workers = 2

(* setup_s: one daemon start takes tens of ms, so starts are timed in
   groups whose sum is over a second (see [Bstats.setup_group]): one
   before the loops, one after them, one after the checks. *)
let setup_per_group = 24
let instance = "net"
let protocol = Greedy_routing.Protocol.Greedy

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle *)

type daemon = { proc : Proc.t; port : int; ready_s : float }

let route_env ~id (s, t) =
  V1.envelope ~id (V1.Route { instance; source = s; target = t; protocol; max_steps = None })

let start_daemon ~serve_exe ~snapshot ~probe =
  let proc =
    Proc.spawn serve_exe
      [ "--port"; "0"; "--workers"; string_of_int workers; "-j"; "1";
        "--load"; instance ^ "=" ^ snapshot ]
  in
  let rec port () =
    match Proc.input_line proc with
    | None -> failwith "daemon exited before serving"
    | Some line -> (
        match Scanf.sscanf_opt line "serving on %_s@:%d " Fun.id with
        | Some p -> p
        | None -> port ())
  in
  let port = port () in
  let c = Wire.connect ~port Wire.Json in
  let _, reply = Wire.rpc c (route_env ~id:0 probe) in
  Wire.close c;
  (match reply with
  | Ok { V1.response = V1.Routed _; _ } -> ()
  | _ -> failwith "daemon's first reply was not a route");
  { proc; port; ready_s = Unix.gettimeofday () -. proc.Proc.spawned }

let stop_daemon d =
  Unix.kill d.proc.Proc.pid Sys.sigterm;
  let rec drain () = match Proc.input_line d.proc with Some _ -> drain () | None -> () in
  drain ();
  ignore (Proc.reap d.proc)

(* ------------------------------------------------------------------ *)
(* The closed loops *)

type sample = { idx : int; codec : Wire.codec; raw : string; src : int; dst : int; v_lo : int; v_hi : int }

type shared = {
  t_send : float array;
  t_done : float array;
  is_write : bool array;
  writes_sent : int Atomic.t;
  writes_acked : int Atomic.t;
  progress : int Atomic.t array;  (** per connection: the index it sends next *)
  stop : bool Atomic.t;
}

type loop_out = {
  next : int;  (** first index this connection did not complete *)
  samples : sample list;
  write_replies : (int * V1.mutate_reply) list;  (** (write number, reply) *)
  failures : int;
}

(* The request index of write [j].  Writes take the last or
   second-to-last slot of their block, so they alternate between the
   two connections (and codecs): first the warm-up writes in blocks of
   [warm_every] from index 0, then one per block of [write_every] from
   [warm] on. *)
let write_index plan j =
  let slot ~start ~every k = start + (k * every) + every - 1 - (k mod 2) in
  if j < plan.warm_writes then slot ~start:0 ~every:plan.warm_every j
  else slot ~start:plan.warm ~every:plan.write_every (j - plan.warm_writes)

(* Writes with a smaller index than [i]. *)
let writes_before plan i =
  let w = plan.warm_writes in
  if i < plan.warm then begin
    let k = min w (i / plan.warm_every) in
    if k < w && write_index plan k < i then k + 1 else k
  end
  else begin
    let j = w + ((i - plan.warm) / plan.write_every) in
    if write_index plan j < i then j + 1 else j
  end

let write_number plan i =
  let j = writes_before plan i in
  if write_index plan j = i then Some j else None

(* Writes are serialised with reads: a write waits until the other
   connection has finished every earlier request, and no request after
   a write is sent before the write is acknowledged.  A write's latency
   and the reads' latencies never share the two cores. *)
let wait_until sh ~deadline cond =
  while (not (cond ())) && not (Atomic.get sh.stop) do
    if Unix.gettimeofday () >= deadline then Atomic.set sh.stop true else Unix.sleepf 0.00005
  done;
  not (Atomic.get sh.stop)

let loop ~kind ~plan ~seed ~port ~codec ~conn ~total ~deadline ~(base : Girg.Instance.t) ~hot ~strata sh =
  let c = Wire.connect ~port codec in
  let n = G.n base.graph in
  let other = sh.progress.(1 - conn) in
  let samples = ref [] and writes = ref [] and failures = ref 0 in
  let i = ref conn in
  (try
     while !i < total && not (Atomic.get sh.stop) do
       let idx = !i in
       let before = writes_before plan idx in
       if wait_until sh ~deadline (fun () -> Atomic.get sh.writes_acked >= before) then
         match write_number plan idx with
         | Some j ->
             if wait_until sh ~deadline (fun () -> Atomic.get other > idx) then begin
               let ops = Fixture.write_script ~seed:Fixture.write_seed base j in
               let env = V1.envelope ~id:idx (V1.Mutate { instance; ops; seed = Fixture.write_seed }) in
               Atomic.incr sh.writes_sent;
               let t0 = Unix.gettimeofday () in
               let _, reply = Wire.rpc c env in
               let t1 = Unix.gettimeofday () in
               sh.t_send.(idx) <- t0;
               sh.t_done.(idx) <- t1;
               sh.is_write.(idx) <- true;
               (match reply with
               | Ok { V1.response = V1.Mutated m; reply_id = Some id } when id = idx ->
                   writes := (j, m) :: !writes
               | _ -> incr failures);
               i := idx + 2;
               Atomic.set sh.progress.(conn) !i;
               Atomic.incr sh.writes_acked
             end
         | None ->
             let s, t =
               match kind with
               | Miss -> Fixture.stratified_pair strata ~seed ~n ~block:plan.pass ~offset:plan.warm idx
               | Hot -> Fixture.hot_pair ~seed hot idx
             in
             let v_lo = Atomic.get sh.writes_acked in
             let t0 = Unix.gettimeofday () in
             let raw, reply = Wire.rpc c (route_env ~id:idx (s, t)) in
             let t1 = Unix.gettimeofday () in
             sh.t_send.(idx) <- t0;
             sh.t_done.(idx) <- t1;
             (match reply with
             | Ok { V1.response = V1.Routed r; reply_id = Some id }
               when id = idx && r.V1.source = s && r.V1.target = t ->
                 if idx >= plan.warm && idx mod plan.verify_every < 2 then
                   samples :=
                     { idx; codec; raw; src = s; dst = t; v_lo; v_hi = Atomic.get sh.writes_sent }
                     :: !samples
             | _ -> incr failures);
             i := idx + 2;
             Atomic.set sh.progress.(conn) !i
     done
   with e ->
     Printf.eprintf "serving loop (%s): %s\n%!" (Wire.codec_name codec) (Printexc.to_string e);
     incr failures;
     Atomic.set sh.stop true);
  Atomic.set sh.progress.(conn) max_int;
  Wire.close c;
  { next = !i; samples = !samples; write_replies = !writes; failures = !failures }

(* ------------------------------------------------------------------ *)
(* Checks: every write reply against a local replay of the script, and
   sampled route replies byte for byte against [Api.Render.route] on a
   version that could have served them. *)

let verify ~(base : Girg.Instance.t) ~writes ~samples =
  let nw = List.length writes in
  let versions = Array.make (nw + 1) base in
  let bad = ref 0 in
  let gen0 = ref None in
  List.iter
    (fun (j, (m : V1.mutate_reply)) ->
      let seed = Fixture.write_seed in
      let v = Girg.Mutate.apply ~seed versions.(j) (Fixture.write_script ~seed base j) in
      versions.(j + 1) <- v;
      let g = v.Girg.Instance.graph in
      let g0 = match !gen0 with Some g0 -> g0 | None -> gen0 := Some (m.mu_generation - j); m.mu_generation - j in
      if
        not
          (m.mu_name = instance && m.mu_epoch = G.epoch g && m.mu_live = G.live_count g
          && m.mu_vertices = G.n g && m.mu_edges = G.m g && m.mu_applied = 2
          && m.mu_generation = g0 + j)
      then incr bad)
    (List.sort compare writes);
  List.iter
    (fun s ->
      let matches v =
        v <= nw
        &&
        match Api.Render.route ~inst:versions.(v) ~protocol ~source:s.src ~target:s.dst () with
        | Ok r ->
            String.equal s.raw
              (Wire.encode_reply s.codec { V1.reply_id = Some s.idx; response = V1.Routed r })
        | Error _ -> false
      in
      let rec any v = v <= s.v_hi && (matches v || any (v + 1)) in
      if not (any s.v_lo) then incr bad)
    samples;
  (!bad, nw + List.length samples)

(* ------------------------------------------------------------------ *)
(* One run *)

type outcome = {
  metrics : Bstats.metric list;
  attempted : int;
  failed : int;
  layers : Bstats.metric list;  (** traced runs only *)
  route_p50_ms : float;
}

let stage_p50_ms stats name =
  match List.find_opt (fun s -> s.V1.stage = name) stats.V1.stages with
  | Some s -> s.V1.p50 *. 1e3
  | None -> nan

let run ~kind ~serve_exe ~snapshot ~seed ~seconds ~traced =
  let plan = plan_of kind in
  let base =
    match Girg.Store.load ~path:snapshot with
    | Ok i -> i
    | Error e -> failwith ("cannot load the snapshot: " ^ e)
  in
  let hot = match kind with Hot -> Fixture.hot_set ~seed ~count:plan.hot base | Miss -> [||] in
  let strata = Fixture.strata base in
  let probe = Fixture.uniform_pair ~seed:(seed + 1) ~n:(G.n base.graph) 0 in
  let setup_group () =
    Bspan.with_ "serve.setup" (fun () ->
        Bstats.setup_group ~per_group:setup_per_group (fun () ->
            let d = start_daemon ~serve_exe ~snapshot ~probe in
            stop_daemon d;
            d.ready_s))
  in
  let setup1 = setup_group () in
  let d = start_daemon ~serve_exe ~snapshot ~probe in
  let total = plan.warm + (passes_for plan ~seconds * plan.pass) in
  let sh =
    {
      t_send = Array.make total nan;
      t_done = Array.make total nan;
      is_write = Array.make total false;
      writes_sent = Atomic.make 0;
      writes_acked = Atomic.make 0;
      progress = [| Atomic.make 0; Atomic.make 1 |];
      stop = Atomic.make false;
    }
  in
  (* A stuck daemon ends the run as failed instead of hanging it. *)
  let deadline = Unix.gettimeofday () +. (4.0 *. seconds) +. 30.0 in
  let outs =
    Bspan.with_ "serve.loops" (fun () ->
        [ (Wire.Json, 0); (Wire.Binary, 1) ]
        |> List.map (fun (codec, conn) ->
               Domain.spawn (fun () ->
                   loop ~kind ~plan ~seed ~port:d.port ~codec ~conn ~total ~deadline ~base ~hot ~strata sh))
        |> List.map Domain.join)
  in
  let server_stats =
    if not traced then None
    else
      let c = Wire.connect ~port:d.port Wire.Json in
      let _, r = Wire.rpc c (V1.envelope V1.Server_stats) in
      Wire.close c;
      match r with Ok { V1.response = V1.Server_stats_reply s; _ } -> Some s | _ -> None
  in
  let peak_rss_mb = Proc.vmhwm_mb (string_of_int d.proc.Proc.pid) in
  stop_daemon d;
  let setup2 = setup_group () in
  (* Complete prefix of the sequence, cut to whole passes. *)
  let done_upto = List.fold_left (fun a o -> min a o.next) max_int outs in
  let passes = max 0 ((done_upto - plan.warm) / plan.pass) in
  let prefix_done k =
    let m = ref neg_infinity in
    for i = 0 to k - 1 do
      if sh.t_done.(i) > !m then m := sh.t_done.(i)
    done;
    !m
  in
  let ends = Array.init (passes + 1) (fun p -> prefix_done (plan.warm + (p * plan.pass))) in
  let pass_walls = Array.init passes (fun p -> ends.(p + 1) -. ends.(p)) in
  let pass_routes = Array.make passes [] and writes = ref [] in
  for i = plan.warm to plan.warm + (passes * plan.pass) - 1 do
    let l = (sh.t_done.(i) -. sh.t_send.(i)) *. 1e3 in
    let p = (i - plan.warm) / plan.pass in
    if sh.is_write.(i) then writes := l :: !writes else pass_routes.(p) <- l :: pass_routes.(p)
  done;
  let pass_routes = Array.map Array.of_list pass_routes in
  let routes = Array.concat (Array.to_list pass_routes) and writes_lat = Array.of_list !writes in
  (* route_p99_ms is the median of the passes' p99s, as wall_s is the
     median pass: a burst of load on the box that lands in one pass
     would otherwise own 1% of the run's samples and set its p99. *)
  let pass_p99 = Array.map (fun r -> Bstats.percentile (Bstats.sorted r) 99.0) pass_routes in
  let write_replies = List.concat_map (fun o -> o.write_replies) outs in
  let samples = List.concat_map (fun o -> o.samples) outs in
  let bad, checked =
    Bspan.with_ "serve.verify" (fun () -> verify ~base ~writes:write_replies ~samples)
  in
  let setup_s = Bstats.median [| setup1; setup2; setup_group () |] in
  let loop_failures = List.fold_left (fun a o -> a + o.failures) 0 outs in
  let sent = List.fold_left (fun a o -> a + (o.next / 2)) 0 outs in
  let tail = Bstats.tail (if passes = 0 then [||] else pass_routes.(0)) in
  Printf.printf
    "%s: %d passes of %d requests, %d route samples (%d per pass: p%g has %d beyond), %d writes, %d replies checked\n%!"
    (match kind with Miss -> "serve-miss" | Hot -> "serve-hot")
    passes plan.pass (Array.length routes) tail.count tail.pct tail.beyond (Array.length writes_lat) checked;
  let measured_s = if passes = 0 then nan else ends.(passes) -. ends.(0) in
  let route_p50_ms = Bstats.median routes in
  let m = Bstats.metric in
  let metrics =
    [
      m "setup_s" "s" setup_s;
      m "wall_s" "s" (Bstats.median pass_walls);
      m "peak_rss_mb" "MB" peak_rss_mb;
      m "throughput_rps" "req/s" (float_of_int (passes * plan.pass) /. measured_s);
      m "route_p50_ms" "ms" route_p50_ms;
      m "route_p99_ms" "ms" (Bstats.median pass_p99);
      m "write_p50_ms" "ms" (Bstats.median writes_lat);
    ]
  in
  let layers =
    match server_stats with
    | None -> []
    | Some s ->
        let counter name = float_of_int (Option.value ~default:0 (List.assoc_opt name s.V1.s_counters)) in
        let hits = counter "server.cache.hits" and misses = counter "server.cache.misses" in
        let stage name = stage_p50_ms s ("stage." ^ name) in
        let q99 =
          match List.find_opt (fun x -> x.V1.stage = "stage.queue_wait") s.V1.stages with
          | Some x -> x.V1.p99 *. 1e3
          | None -> nan
        in
        let stages = [ stage "queue_wait"; stage "compute"; stage "render"; stage "write" ] in
        Printf.printf
          "decomposition: client route p50 %.4f ms = queue_wait %.4f + compute %.4f + render %.4f + write %.4f + unexplained %.4f\n%!"
          route_p50_ms (List.nth stages 0) (List.nth stages 1) (List.nth stages 2)
          (List.nth stages 3)
          (route_p50_ms -. List.fold_left ( +. ) 0.0 stages);
        [
          m "server.cache.hit_ratio" "ratio" (hits /. Float.max 1.0 (hits +. misses));
          m "server.cache.coalesced" "count" (counter "server.cache.coalesced");
          m "server.stage.queue_wait_p50_ms" "ms" (stage "queue_wait");
          m "server.stage.queue_wait_p99_ms" "ms" q99;
          m "server.stage.compute_p50_ms" "ms" (stage "compute");
          m "server.stage.render_p50_ms" "ms" (stage "render");
          m "server.stage.write_p50_ms" "ms" (stage "write");
          m "server.unexplained_p50_ms" "ms" (route_p50_ms -. List.fold_left ( +. ) 0.0 stages);
        ]
  in
  let failed = bad + loop_failures + (if passes = 0 || Atomic.get sh.stop then 1 else 0) in
  { metrics; attempted = sent + checked + 3; failed; layers; route_p50_ms }
