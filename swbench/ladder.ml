(* The traced run: per-layer costs.  Each layer is timed from outside,
   through its module's public functions, on the workload's own
   instance and pairs, and read from the counters and spans the program
   already keeps.  The workload runs once, with the benchmark's spans
   on; trace.overhead_share prices those spans (see [traced]). *)

module J = Obs.Export
module G = Sparse_graph.Graph
module V1 = Api.V1

let timed f = let t = Unix.gettimeofday () in let r = f () in (r, Unix.gettimeofday () -. t)

(* Median seconds per call of [f] over [reps] batches of [n] calls. *)
let per_call ?(reps = 5) n f =
  Bstats.median
    (Array.init reps (fun _ ->
         let (), d = timed (fun () -> for _ = 1 to n do f () done) in
         d /. float_of_int n))

(* Bytes allocated per call of [f] (on this domain). *)
let alloc_per_call n f =
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to n do f () done;
  (Gc.allocated_bytes () -. a0) /. float_of_int n

let counter = Suite.counter
let roots_total name = List.fold_left (fun a r -> a +. Suite.span_total name r) 0.0 (Obs.Span.roots ())

(* The workload's instance (for suite, E18's) and its pairs. *)
let generate_instance workload ~seed =
  match workload with
  | "suite" -> Fixture.e18_instance ~seed
  | _ -> Fixture.generate ~seed:Fixture.serve_instance_seed (Fixture.serve_params ())

let pairs_of workload ~seed (inst : Girg.Instance.t) =
  let n = G.n inst.graph in
  match workload with
  | "serve-miss" ->
      let plan = Serving.plan_of Serving.Miss in
      let st = Fixture.strata inst in
      Array.init plan.pass (Fixture.stratified_pair st ~seed ~n ~block:plan.pass ~offset:0)
  | "serve-hot" -> Fixture.hot_set ~seed ~count:(Serving.plan_of Serving.Hot).hot inst
  | _ -> Fixture.giant_pairs ~seed ~count:512 inst

let greedy_routes inst pairs =
  Array.iter
    (fun (s, t) ->
      let objective = Greedy_routing.Objective.girg_phi inst ~target:t in
      ignore (Greedy_routing.Protocol.run Greedy_routing.Protocol.Greedy ~graph:inst.Girg.Instance.graph ~objective ~source:s ()))
    pairs

(* Child: µs per greedy route over the workload's pairs, in a process
   whose observability switch the parent sets. *)
let child_greedy_cost ~dir ~seed ~workload =
  let inst =
    match Girg.Store.load ~path:(Filename.concat dir "ladder.bin") with Ok i -> i | Error e -> failwith e
  in
  let pairs = pairs_of workload ~seed inst in
  Proc.announce_ready ();
  let reps = max 1 (2_000 / Array.length pairs) in
  let per = per_call ~reps:5 reps (fun () -> greedy_routes inst pairs) in
  Proc.report [ ("us_per_route", J.Float (per /. float_of_int (Array.length pairs) *. 1e6)) ]

(* Child: the unit-cost ladder on the workload's instance.  Each layer's
   measurements form one benchmark span (layer.<module>); the spans are
   written to [spans]. *)
let child ~workload ~dir ~seed ~spans =
  Proc.announce_ready ();
  Bspan.on := true;
  let out = ref [] in
  let put name v = out := (name, J.Float v) :: !out in
  let open_section = ref None in
  let section name =
    Option.iter (fun (n, t0) -> Bspan.record n t0 (Unix.gettimeofday ())) !open_section;
    open_section := Option.map (fun n -> (n, Unix.gettimeofday ())) name
  in
  section (Some "layer.prng");
  (* prng *)
  let r = Prng.Rng.create ~seed in
  let acc = ref 0 in
  put "prng.ns_per_draw" (1e9 *. per_call 10_000_000 (fun () -> acc := !acc lxor Prng.Rng.bits62 r));
  ignore (Sys.opaque_identity !acc);
  (* generation: jobs=1 for unit costs and exact counts, then jobs=2 *)
  section (Some "layer.girg.generate");
  let generate jobs =
    Parallel.Global.set_jobs jobs;
    Obs.Metrics.reset Obs.Metrics.default;
    Obs.Span.clear_roots ();
    let a0 = Gc.allocated_bytes () in
    let inst, wall = timed (fun () -> generate_instance workload ~seed) in
    (inst, wall, Gc.allocated_bytes () -. a0)
  in
  let inst, wall1, alloc1 = generate 1 in
  let m = float_of_int (G.m inst.graph) in
  let attempts = float_of_int (counter "girg.cell.type1_pairs" + counter "girg.cell.type2_trials") in
  put "girg.cell.attempts" attempts;
  put "girg.cell.edges_per_attempt" (float_of_int (counter "girg.edges_accepted") /. attempts);
  put "girg.cell.ns_per_attempt" (1e9 *. roots_total "girg.sample_edges" /. attempts);
  put "sparse_graph.graph.ns_per_edge_build" (1e9 *. roots_total "girg.build_graph" /. m);
  put "girg.generate.alloc_bytes_per_edge" (alloc1 /. m);
  let _, wall2, _ = generate 2 in
  put "girg.generate.edges_per_s" (m /. wall2);
  put "parallel.generate_speedup" (wall1 /. wall2);
  Parallel.Global.set_jobs 1;
  (* kernel probes over random vertex pairs *)
  section (Some "layer.girg.kernel");
  let n = G.n inst.graph in
  let k = Girg.Kernel.girg inst.params in
  let probe = (Option.get k.Girg.Kernel.prob_packed) inst.packed inst.weights in
  let us = Array.init 65_536 (fun _ -> Prng.Rng.int r n) and vs = Array.init 65_536 (fun _ -> Prng.Rng.int r n) in
  let sink = ref 0.0 in
  put "girg.kernel.ns_per_probe"
    (1e9 /. 65_536.0 *. per_call 20 (fun () -> for i = 0 to 65_535 do sink := !sink +. probe us.(i) vs.(i) done));
  section (Some "layer.girg.store");
  let path = Filename.concat dir "ladder.bin" in
  put "girg.store.save_binary_s" (per_call 3 (fun () -> Girg.Store.save_binary ~path inst));
  put "girg.store.load_binary_ms" (1e3 *. per_call 3 (fun () -> ignore (Girg.Store.load ~path)));
  put "girg.store.load_mmap_ms" (1e3 *. per_call 3 (fun () -> ignore (Girg.Store.load_mmap ~path)));
  (* mutation: the workload's own write scripts, timed after the
     serving workloads' warm-up writes, as write_p50_ms is *)
  section (Some "layer.girg.mutate");
  let cur = ref inst in
  let warm = (Serving.plan_of Serving.Miss).warm_writes in
  let apply j =
    let seed = Fixture.write_seed in
    Girg.Mutate.apply ~seed !cur (Fixture.write_script ~seed inst j)
  in
  for j = 0 to warm - 1 do cur := apply j done;
  let wl = Array.init 8 (fun k ->
      let v, d = timed (fun () -> apply (warm + k)) in
      cur := v; d *. 1e3) in
  put "girg.mutate.ms_per_apply" (Bstats.median wl);
  section (Some "layer.sparse_graph");
  let comps = Sparse_graph.Components.compute inst.graph in
  put "sparse_graph.components.ms_per_compute"
    (1e3 *. per_call 3 (fun () -> ignore (Sparse_graph.Components.compute inst.graph)));
  let pairs = pairs_of workload ~seed inst in
  let connected (s, t) = Sparse_graph.Components.same comps s t in
  let disc = Array.of_list (List.filter (fun p -> not (connected p)) (Array.to_list pairs)) in
  put "sparse_graph.bfs.disconnected_share" (float_of_int (Array.length disc) /. float_of_int (Array.length pairs));
  let conn = Array.of_list (List.filter connected (Array.to_list pairs)) in
  let conn = Array.sub conn 0 (min 256 (Array.length conn)) in
  let extra = Array.init 4096 (Fixture.uniform_pair ~seed:(seed + 1) ~n) in
  let disc =
    if Array.length disc > 0 then disc
    else Array.of_list (List.filter (fun p -> not (connected p)) (Array.to_list extra))
  in
  let disc = Array.sub disc 0 (min 16 (Array.length disc)) in
  let bfs (s, t) () = ignore (Sparse_graph.Bfs.distance inst.graph ~source:s ~target:t) in
  let mean_us ps = 1e6 *. per_call ~reps:3 1 (fun () -> Array.iter (fun p -> bfs p ()) ps) /. float_of_int (Array.length ps) in
  put "sparse_graph.bfs.us_connected" (mean_us conn);
  (* A disconnected pair costs one side's sweep of its whole component;
     on an instance without one (E18's is connected), time that sweep
     from the first pair's source. *)
  put "sparse_graph.bfs.us_disconnected"
    (if Array.length disc > 0 then mean_us disc
     else
       1e6 *. per_call ~reps:3 1 (fun () -> ignore (Sparse_graph.Bfs.distances inst.graph ~source:(fst conn.(0)))));
  put "sparse_graph.bfs.alloc_kb_per_call" (alloc_per_call 1 (bfs conn.(0)) /. 1024.0);
  section (Some "layer.core");
  let _, t0 = pairs.(0) in
  let score = Greedy_routing.Objective.scorer (Greedy_routing.Objective.girg_phi inst ~target:t0) in
  let fsink = ref 0.0 in
  put "core.objective.ns_per_eval"
    (1e9 /. float_of_int n *. per_call 5 (fun () -> for v = 0 to n - 1 do fsink := !fsink +. score v done));
  let np = float_of_int (Array.length pairs) in
  Obs.Metrics.reset Obs.Metrics.default;
  greedy_routes inst pairs;
  put "core.greedy.evals_per_route" (float_of_int (counter "route.greedy.objective_evals") /. np);
  put "core.greedy.hops_per_route" (float_of_int (counter "route.greedy.steps") /. np);
  put "core.greedy.us_per_route" (1e6 /. np *. per_call 3 (fun () -> greedy_routes inst pairs));
  let few = Array.sub conn 0 (min 64 (Array.length conn)) in
  put "core.patch_dfs.us_per_route"
    (1e6 /. float_of_int (Array.length few)
    *. per_call 3 (fun () ->
           Array.iter
             (fun (s, t) ->
               let objective = Greedy_routing.Objective.girg_phi inst ~target:t in
               ignore (Greedy_routing.Protocol.run Greedy_routing.Protocol.Patch_dfs ~graph:inst.graph ~objective ~source:s ()))
             few));
  (* api: render and codecs (the daemon decodes requests, encodes replies) *)
  section (Some "layer.api");
  let render (s, t) () = ignore (Api.Render.route ~inst ~protocol:Greedy_routing.Protocol.Greedy ~source:s ~target:t ()) in
  put "api.render.us_per_route" (1e6 /. float_of_int (Array.length few) *. per_call 3 (fun () -> Array.iter (fun p -> render p ()) few));
  let s0, t0 = conn.(0) in
  let req = V1.envelope ~id:1 (V1.Route { instance = "net"; source = s0; target = t0; protocol = Greedy_routing.Protocol.Greedy; max_steps = None }) in
  let reply =
    match Api.Render.route ~inst ~protocol:Greedy_routing.Protocol.Greedy ~source:s0 ~target:t0 () with
    | Ok r -> { V1.reply_id = Some 1; response = V1.Routed r }
    | Error _ -> failwith "render failed"
  in
  let line = V1.request_line req in
  let payload =
    let f = Api.Binary.request_frame req in
    match Api.Binary.parse f ~pos:0 ~len:(String.length f) with
    | Api.Binary.Frame { payload; _ } -> payload
    | _ -> failwith "cannot frame the request"
  in
  let codec name decode encode =
    put (name ^ ".us_per_decode") (1e6 *. per_call 20_000 decode);
    put (name ^ ".us_per_encode") (1e6 *. per_call 20_000 encode);
    put (name ^ ".alloc_bytes_per_decode") (alloc_per_call 1000 decode);
    put (name ^ ".alloc_bytes_per_encode") (alloc_per_call 1000 encode)
  in
  codec "api.v1" (fun () -> ignore (V1.envelope_of_line line)) (fun () -> ignore (V1.reply_line reply));
  codec "api.binary" (fun () -> ignore (Api.Binary.envelope_of_payload payload)) (fun () -> ignore (Api.Binary.reply_frame reply));
  section (Some "layer.server.cache");
  let key i =
    Server.Cache.route_key ~name:"net" ~generation:1 ~protocol:Greedy_routing.Protocol.Greedy
      ~max_steps:None ~source:i ~target:(i + 1)
  in
  let cache = Server.Cache.create ~cap:4096 in
  let routed = reply.V1.response in
  let k0 = key 0 in
  ignore (Server.Cache.find_or_compute cache ~key:k0 (fun () -> routed));
  put "server.cache.us_per_hit" (1e6 *. per_call 100_000 (fun () -> ignore (Server.Cache.find_or_compute cache ~key:k0 (fun () -> routed))));
  let keys = Array.init 4096 key in
  let inv =
    Array.init 5 (fun _ ->
        Array.iter (fun k -> ignore (Server.Cache.find_or_compute cache ~key:k (fun () -> routed))) keys;
        snd (timed (fun () -> Server.Cache.invalidate_name cache ~name:"net")) *. 1e6)
  in
  put "server.cache.invalidate_us" (Bstats.median inv);
  section None;
  Bspan.write spans;
  ignore (Sys.opaque_identity (!sink, !fsink));
  Proc.report (List.rev (("spans", J.Int (Bspan.count ())) :: !out))

(* ------------------------------------------------------------------ *)
(* Parent *)

(* The per-layer metrics, names and units, as BENCHMARK.json lists them. *)
let per_layer ~repo =
  let path = Filename.concat repo "BENCHMARK.json" in
  match J.json_of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j -> (
      match J.member "per_layer" j with
      | Some (J.Arr ms) ->
          List.map
            (fun m ->
              match (J.member "name" m, J.member "unit" m) with
              | Some (J.Str name), Some (J.Str unit_) -> (name, unit_)
              | _ -> failwith (path ^ ": malformed per_layer entry"))
            ms
      | _ -> failwith (path ^ ": no per_layer list"))

let medf xs = Bstats.median (Array.of_list xs)

let suite_layers ~exe ~work ~seed ~(pass2 : Proc.run) =
  (* A jobs=1 pass, so span time is wall time: each term is an exact
     count times the unit cost the program's own spans measured for it
     in the same pass; what no term covers is the residual. *)
  let r = (Suite.run_pass ~exe ~work ~seed ~jobs:1 99).Suite.p.Proc.report in
  let c name = Proc.num r name in
  let sum name = Array.fold_left ( +. ) 0.0 (Proc.floats r name) in
  let terms =
    [
      ("cell sampler", "attempts", c "girg.cell.type1_pairs" +. c "girg.cell.type2_trials", c "sample_edges_s");
      ("CSR build", "edges", c "girg.edges_accepted", c "build_graph_s");
      ("routing", "routes", sum "route_count", sum "route_wall_s");
    ]
  in
  let wall = c "wall_s" in
  let explained = List.fold_left (fun a (_, _, _, t) -> a +. t) 0.0 terms in
  Printf.printf "decomposition: suite wall %.3f s at jobs=1\n" wall;
  List.iter
    (fun (layer, what, count, t) ->
      Printf.printf "  %-12s %12.0f %-8s x %10.1f ns = %7.3f s (%4.1f%%)\n" layer count what
        (1e9 *. t /. count) t (100.0 *. t /. wall))
    terms;
  Printf.printf "  %-12s %46.3f s (%4.1f%%)\n%!" "unexplained" (wall -. explained)
    (100.0 *. (1.0 -. (explained /. wall)));
  let ids = match J.member "ids" pass2.Proc.report with Some (J.Arr l) -> List.map (function J.Str s -> s | _ -> "?") l | _ -> [] in
  let walls = Proc.floats pass2.Proc.report "exp_wall_s" in
  List.mapi (fun i id -> Bstats.metric (Printf.sprintf "experiments.%s.wall_s" id) "s" walls.(i)) ids
  @ [ Bstats.metric "experiments.unexplained_share" "ratio" (1.0 -. (explained /. wall)) ]

let pipeline_layers pass =
  let runs name = List.filter_map (fun (n, r) -> if n = name then Some r.Proc.report else None) pass in
  let sum name field = List.fold_left (fun a r -> a +. Proc.num r field) 0.0 (runs name) in
  let spill = sum "spill" "spill_s" and gen = sum "generate" "generate_s" in
  let m = Bstats.metric in
  [
    m "girg.shard.spill_s" "s" spill;
    m "girg.shard.spill_over_generate" "ratio" (spill /. gen);
    m "girg.shard.spill_peak_rss_mb" "MB" (List.fold_left (fun a r -> Float.max a (Proc.num r "vmhwm_mb")) 0.0 (runs "spill"));
    m "girg.shard.merge_s" "s" (sum "merge" "merge_s");
  ]

(* The workload runs once, traced, and then every layer's costs are
   measured; trace.overhead_share is the share of the traced run's wall
   that its spans cost: the spans it recorded times the measured cost
   of one span, over the wall less that. *)
let traced ~exe ~repo ~work ~seed ~seconds ~workload ~serve_exe ~serve_snapshot =
  let t_start = Unix.gettimeofday () in
  let attempted = ref 0 and failed = ref 0 in
  let count (a, f) = attempted := !attempted + a; failed := !failed + f in
  Bspan.on := true;
  let quarter = Float.max 4.0 (seconds /. 4.0) in
  (* Layers other workloads exercise run on every traced run too, so
     each reports the whole ladder. *)
  let pass2 =
    match workload with
    | "suite" ->
        let _, a, f, ps = Suite.run ~exe ~repo ~work ~seed ~seconds:quarter in
        count (a, f);
        (List.hd ps).Suite.p
    | _ -> (Suite.run_pass ~exe ~work ~seed ~jobs:2 98).Suite.p
  in
  let pipe = Pipeline.run_pass ~exe ~dir:work ~seed in
  count (Bspan.with_ "pipeline.check" (fun () -> Pipeline.check ~exe ~dir:work ~seed pipe));
  let snapshot = serve_snapshot () in
  let kind, serve_s =
    match workload with
    | "serve-miss" -> (Serving.Miss, quarter)
    | "serve-hot" -> (Serving.Hot, quarter)
    | _ -> (Serving.Hot, 4.0)
  in
  let o = Serving.run ~kind ~serve_exe ~snapshot ~seed ~seconds:serve_s ~traced:true in
  count (o.attempted, o.failed);
  let layers = pipeline_layers pipe @ o.layers @ suite_layers ~exe ~work ~seed ~pass2 in
  let trace_dir = Filename.dirname (Filename.dirname work) in
  let ladder_spans = Filename.concat trace_dir ("trace-" ^ workload ^ "-ladder.jsonl") in
  let ladder =
    (Proc.run exe
       [ "child"; "ladder"; "--workload"; workload; "--dir"; work; "--seed"; string_of_int seed; "--spans"; ladder_spans ])
      .Proc.report
  in
  let greedy obs =
    Proc.num
      (Proc.run ~env:[ ("SMALLWORLD_OBS", obs) ] exe
         [ "child"; "greedy-cost"; "--workload"; workload; "--dir"; work; "--seed"; string_of_int seed ]).Proc.report
      "us_per_route"
  in
  let obs_on = medf [ greedy "1"; greedy "1"; greedy "1" ] and obs_off = medf [ greedy "0"; greedy "0"; greedy "0" ] in
  let trace_cost = float_of_int (Bspan.count () + int_of_float (Proc.num ladder "spans")) *. Bspan.cost_per_span () in
  let trace_wall = Unix.gettimeofday () -. t_start in
  let ladder_metrics =
    match ladder with
    | J.Obj fields ->
        List.filter_map
          (fun (k, v) ->
            match v with
            | J.Float f when k <> "vmhwm_mb" -> Some (k, f)
            | J.Int i when k <> "spans" -> Some (k, float_of_int i)
            | _ -> None)
          fields
    | _ -> []
  in
  let spans = Bspan.totals () in
  Bspan.write (Filename.concat trace_dir ("trace-" ^ workload ^ ".jsonl"));
  Printf.printf "benchmark spans (name, calls, inclusive s, self s):\n";
  List.iter (fun (n, c, t, s) -> Printf.printf "  %-24s %5d %10.4f %10.4f\n" n c t s) spans;
  let all =
    ladder_metrics
    @ List.map (fun m -> (m.Bstats.name, m.Bstats.value)) layers
    @ [ ("obs.greedy_overhead", obs_on /. obs_off); ("trace.overhead_share", trace_cost /. (trace_wall -. trace_cost)) ]
  in
  let metrics =
    List.map
      (fun (name, unit_) ->
        let v = match List.assoc_opt name all with Some v -> v | None -> nan in
        Bstats.metric name unit_ v)
      (per_layer ~repo)
  in
  (metrics, !attempted, !failed)
