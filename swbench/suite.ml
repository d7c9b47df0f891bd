(* suite: regenerate E1-E18 at Quick scale through
   [Experiments.Registry], the shared pool at [jobs] domains.  Each pass
   runs in a process of its own (its start-up is set-up time, its
   VmHWM the pass's peak memory); no call inside a pass is timed
   individually below the experiment. *)

module J = Obs.Export
module Reg = Experiments.Registry

let golden_ids = [ "E4"; "E5"; "E6"; "E7"; "E8"; "E11"; "E15"; "E18" ]

(* The timed passes run at the golden seed: the same instances every
   run (two seeds' heavy-tailed instances differ far more than two runs
   do), and every pass is checked against test/golden.  The workload
   seed drives the repeat check. *)
let golden_seed = 42

(* Outermost program spans named route.<protocol> (the per-route spans
   of [Greedy_routing.Protocol.run]), as (invocations, seconds). *)
let rec route_spans (s : Obs.Span.t) =
  if String.starts_with ~prefix:"route." s.name && s.name <> "route.bfs" then (s.count, s.wall_s)
  else
    List.fold_left
      (fun (c, w) ch ->
        let c', w' = route_spans ch in
        (c + c', w +. w'))
      (0, 0.0) s.children

let rec span_total name (s : Obs.Span.t) =
  if s.name = name then s.wall_s
  else List.fold_left (fun a ch -> a +. span_total name ch) 0.0 s.children

let counter name =
  match Obs.Metrics.find_value Obs.Metrics.default name with
  | Some (Obs.Metrics.Counter_v v) -> v
  | _ -> 0

(* Counters the decomposition multiplies by unit costs. *)
let counted = [ "girg.cell.type1_pairs"; "girg.cell.type2_trials"; "girg.edges_accepted" ]

(* A pass's start-up, before its first experiment: the pool at [jobs]
   domains and the registry. *)
let prepare ~jobs =
  Parallel.Global.set_jobs jobs;
  ignore (Sys.opaque_identity Reg.all)

(* Child: one pass.  Prints "ready", then its report; writes each
   experiment's rendered tables to [out]/<id>.txt. *)
let child_pass ~seed ~jobs ~out =
  prepare ~jobs;
  Proc.announce_ready ();
  Obs.Metrics.reset Obs.Metrics.default;
  Obs.Span.clear_roots ();
  let ctx = Experiments.Context.make ~seed ~scale:Experiments.Context.Quick () in
  let t0 = Unix.gettimeofday () in
  let rows =
    List.map
      (fun (e : Reg.t) ->
        let t = Unix.gettimeofday () in
        let text = Reg.run_and_render e ctx in
        let wall = Unix.gettimeofday () -. t in
        let roots = Obs.Span.roots () in
        Obs.Span.clear_roots ();
        let rc, rw =
          List.fold_left
            (fun (c, w) r ->
              let c', w' = route_spans r in
              (c + c', w +. w'))
            (0, 0.0) roots
        in
        let sum name = List.fold_left (fun a r -> a +. span_total name r) 0.0 roots in
        (e.id, text, wall, rc, rw, sum "girg.sample_edges", sum "girg.build_graph"))
      Reg.all
  in
  let wall = Unix.gettimeofday () -. t0 in
  List.iter
    (fun (id, text, _, _, _, _, _) ->
      Out_channel.with_open_bin (Filename.concat out (id ^ ".txt")) (fun oc -> output_string oc text))
    rows;
  let col f = J.Arr (List.map f rows) in
  Proc.report
    ([
       ("wall_s", J.Float wall);
       ("ids", col (fun (id, _, _, _, _, _, _) -> J.Str id));
       ("exp_wall_s", col (fun (_, _, w, _, _, _, _) -> J.Float w));
       ("route_count", col (fun (_, _, _, c, _, _, _) -> J.Int c));
       ("route_wall_s", col (fun (_, _, _, _, w, _, _) -> J.Float w));
       ("sample_edges_s", J.Float (List.fold_left (fun a (_, _, _, _, _, s, _) -> a +. s) 0.0 rows));
       ("build_graph_s", J.Float (List.fold_left (fun a (_, _, _, _, _, _, b) -> a +. b) 0.0 rows));
     ]
    @ List.map (fun name -> (name, J.Int (counter name))) counted)

(* Child: the golden experiments at the workload seed, twice, must
   render identical tables. *)
let child_repeat ~seed =
  Parallel.Global.set_jobs 2;
  Proc.announce_ready ();
  let ctx = Experiments.Context.make ~seed ~scale:Experiments.Context.Quick () in
  let mismatches =
    List.filter
      (fun id ->
        let e = Option.get (Reg.find id) in
        not (String.equal (Reg.run_and_render e ctx) (Reg.run_and_render e ctx)))
      golden_ids
  in
  Proc.report [ ("repeat_mismatches", J.Arr (List.map (fun s -> J.Str s) mismatches)) ]

(* The suite's write probe: [write_chunks] chains of [chunk_writes]
   fixed drop+resample scripts, each applied one epoch at a time from
   the serving workloads' instance, read from a snapshot made once per
   run.  Each chain runs in a child of its own, an equal share after
   each pass, so the probe samples the box across the run as the passes
   do.  On the 4096-vertex instance E18 churns, a write took ~10 ms and
   the probe's median moved by 0.1 relative to the suite's wall_s from
   run to run, however its chains were laid out; the serving writes
   (~150 ms) stay within 0.03-0.07 of their workload's other figures. *)
let write_chunks = 8
let chunk_writes = 8

let child_writes ~snapshot ~chunk =
  Proc.announce_ready ();
  let base =
    match Girg.Store.load ~path:snapshot with
    | Ok i -> i
    | Error e -> failwith ("cannot load the snapshot: " ^ e)
  in
  let seed = Fixture.write_seed in
  (* Start the writes on a compacted heap, clear of the load's
     garbage. *)
  Gc.compact ();
  let cur = ref base in
  let lat =
    List.init chunk_writes (fun k ->
        let ops = Fixture.write_script ~seed base ((chunk * chunk_writes) + k) in
        let t = Unix.gettimeofday () in
        cur := Girg.Mutate.apply ~seed !cur ops;
        (Unix.gettimeofday () -. t) *. 1e3)
  in
  Proc.report [ ("write_ms", J.Arr (List.map (fun x -> J.Float x) lat)) ]

(* Route latency resolved per experiment: each route counts with its
   experiment's mean route time.  The percentile is read off that step
   distribution with linear interpolation between the experiments'
   midpoints, so when two experiments' means cross from one run to the
   next the figure moves continuously instead of jumping between
   them. *)
let weighted_percentile groups p =
  let groups = Array.of_list (List.sort compare (List.filter (fun (_, c) -> c > 0) groups)) in
  let total = Array.fold_left (fun a (_, c) -> a + c) 0 groups in
  let k = Array.length groups in
  let mid = Array.make k 0.0 in
  let seen = ref 0 in
  Array.iteri
    (fun i (_, c) ->
      mid.(i) <- (float_of_int !seen +. (float_of_int c /. 2.0)) /. float_of_int total;
      seen := !seen + c)
    groups;
  let q = p /. 100.0 in
  if k = 0 then nan
  else if q <= mid.(0) then fst groups.(0)
  else if q >= mid.(k - 1) then fst groups.(k - 1)
  else
    let i = ref 0 in
    while mid.(!i + 1) < q do incr i done;
    let v0 = fst groups.(!i) and v1 = fst groups.(!i + 1) in
    v0 +. ((v1 -. v0) *. (q -. mid.(!i)) /. (mid.(!i + 1) -. mid.(!i)))

type pass = { p : Proc.run; tables : (string * string) list  (** id, rendered tables *) }

let run_pass ~exe ~work ~seed ~jobs k =
  let out = Filename.concat work (Printf.sprintf "suite-%d" k) in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let p =
    Bspan.with_ "suite.pass" (fun () ->
        Proc.run exe [ "child"; "suite"; "--seed"; string_of_int seed; "--jobs"; string_of_int jobs; "--out"; out ])
  in
  let read id = In_channel.with_open_bin (Filename.concat out (id ^ ".txt")) In_channel.input_all in
  { p; tables = List.map (fun (e : Reg.t) -> (e.id, read e.id)) Reg.all }

(* Passes per run, fixed by the run's length at ~8 s a pass plus its
   share of the write probe, never by the clock. *)
let passes_for ~seconds = max 2 (int_of_float (seconds /. 10.0))

(* setup_s: a child that only does a pass's start-up ([prepare]) takes
   a few ms from spawn to ready, so starts are timed in groups whose
   sum is over a second (see [Bstats.setup_group]): one before the
   passes, one after them, one after the repeat check. *)
let setup_per_group = 400

let run ~exe ~repo ~work ~seed ~seconds =
  let setup_group () =
    Bstats.setup_group ~per_group:setup_per_group (fun () ->
        (Proc.run exe [ "child"; "ready"; "--jobs"; "2" ]).Proc.ready_s)
  in
  let setup1 = setup_group () in
  let snapshot = Filename.concat work "writes.bin" in
  ignore (Proc.run exe [ "child"; "serve-prep"; "--out"; snapshot ]);
  let chunks = ref [] in
  let write_chunk () =
    let c = List.length !chunks in
    let r = Proc.run exe [ "child"; "writes"; "--snapshot"; snapshot; "--chunk"; string_of_int c ] in
    chunks := Proc.floats r.Proc.report "write_ms" :: !chunks
  in
  let n = passes_for ~seconds in
  let ps = ref [] in
  for k = 0 to n - 1 do
    ps := run_pass ~exe ~work ~seed:golden_seed ~jobs:2 k :: !ps;
    while List.length !chunks < (k + 1) * write_chunks / n do
      write_chunk ()
    done
  done;
  let ps = List.rev !ps in
  let setup2 = setup_group () in
  let repeat = Proc.run exe [ "child"; "repeat"; "--seed"; string_of_int seed ] in
  let setup_s = Bstats.median [| setup1; setup2; setup_group () |] in
  let reports = List.map (fun p -> p.p.Proc.report) ps in
  let med f = Bstats.median (Array.of_list (List.map f reports)) in
  let groups =
    List.concat_map
      (fun r ->
        let c = Proc.floats r "route_count" and w = Proc.floats r "route_wall_s" in
        List.init (Array.length c) (fun i ->
            ((if c.(i) > 0.0 then w.(i) /. c.(i) *. 1e3 else 0.0), int_of_float c.(i))))
      reports
  in
  let routes r = Array.fold_left ( +. ) 0.0 (Proc.floats r "route_count") in
  let first = List.hd ps in
  let repeats_differ = List.length (List.filter (fun p -> p.tables <> first.tables) ps) in
  let golden_differ =
    List.length
      (List.filter
         (fun p ->
           List.exists
             (fun id ->
               let path = Filename.concat repo (Printf.sprintf "test/golden/tables_%s.txt" id) in
               not (String.equal (In_channel.with_open_bin path In_channel.input_all) (List.assoc id p.tables)))
             golden_ids)
         ps)
  in
  let seed_differ =
    match J.member "repeat_mismatches" repeat.Proc.report with Some (J.Arr l) -> List.length l | _ -> 1
  in
  let writes = Array.concat !chunks in
  Printf.printf
    "suite: %d passes at seed %d (%d differ from test/golden, %d from the first pass); seed %d repeats: %d of %d differ\n%!"
    (List.length ps) golden_seed golden_differ repeats_differ seed seed_differ (List.length golden_ids);
  let m = Bstats.metric in
  let metrics =
    [
      m "setup_s" "s" setup_s;
      m "wall_s" "s" (med (fun r -> Proc.num r "wall_s"));
      m "peak_rss_mb" "MB" (med (fun r -> Proc.num r "vmhwm_mb"));
      m "throughput_rps" "req/s"
        (List.fold_left (fun a r -> a +. routes r) 0.0 reports
        /. List.fold_left (fun a r -> a +. Proc.num r "wall_s") 0.0 reports);
      m "route_p50_ms" "ms" (weighted_percentile groups 50.0);
      m "route_p99_ms" "ms" (weighted_percentile groups 99.0);
      m "write_p50_ms" "ms" (Bstats.median writes);
    ]
  in
  let attempted = (List.length ps * List.length Reg.all) + (2 * List.length golden_ids) + Array.length writes in
  (metrics, attempted, golden_differ + repeats_differ + seed_differ, ps)
