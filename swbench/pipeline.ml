(* The scale pipeline, measured in the traced run: generate -> S-shard
   spill -> merge -> save_binary -> load_mmap -> a batch of writes and
   routes on the mapped instance.  Every phase runs in its own process,
   so each reports its own peak RSS; a pass is one trip through all of
   them, and [check] compares it with direct generation and the heap. *)

module J = Obs.Export
module G = Sparse_graph.Graph

let route_count = 2048
let write_count = 16

let path dir name = Filename.concat dir name
let spill_path dir i = path dir (Printf.sprintf "shard-%d.spill" i)
let timed f = let t = Unix.gettimeofday () in let r = f () in (r, Unix.gettimeofday () -. t)

(* ------------------------------------------------------------------ *)
(* Phase children *)

let child_generate ~dir =
  Parallel.Global.set_jobs 2;
  Proc.announce_ready ();
  let inst, gen_s =
    timed (fun () ->
        Fixture.generate ~sampler:Girg.Instance.Use_cell ~seed:Fixture.pipeline_instance_seed
          (Fixture.pipeline_params ()))
  in
  Girg.Store.save_binary ~path:(path dir "direct.bin") inst;
  Proc.report [ ("generate_s", J.Float gen_s) ]

let child_spill ~dir ~shard =
  Parallel.Global.set_jobs 2;
  Proc.announce_ready ();
  let _, s =
    timed (fun () ->
        Girg.Shard.generate_spill ~path:(spill_path dir shard) ~seed:Fixture.pipeline_instance_seed
          ~shards:Fixture.pipeline_shards ~shard (Fixture.pipeline_params ()))
  in
  Proc.report [ ("spill_s", J.Float s) ]

let child_merge ~dir =
  Parallel.Global.set_jobs 2;
  Proc.announce_ready ();
  let paths = List.init Fixture.pipeline_shards (spill_path dir) in
  let inst, merge_s =
    timed (fun () ->
        match Girg.Shard.merge ~paths () with Ok i -> i | Error e -> failwith ("merge: " ^ e))
  in
  Girg.Store.save_binary ~path:(path dir "merged.bin") inst;
  Proc.report [ ("merge_s", J.Float merge_s) ]

(* Apply each write (chained from [inst]), then route each pair on
   [inst] itself; returns the writes' (epoch, live, edges) and the reply
   texts. *)
let write_and_route ~seed inst =
  let cur = ref inst in
  let states =
    Array.init write_count (fun j ->
        let v = Girg.Mutate.apply ~seed !cur (Fixture.write_script ~seed inst j) in
        cur := v;
        let g = v.Girg.Instance.graph in
        Printf.sprintf "%d %d %d" (G.epoch g) (G.live_count g) (G.m g))
  in
  let texts =
    Array.map
      (fun (s, t) ->
        match Api.Render.route ~inst ~protocol:Greedy_routing.Protocol.Greedy ~source:s ~target:t () with
        | Ok r -> r.Api.V1.text
        | Error e -> Api.Error.to_string e)
      (Fixture.giant_pairs ~seed ~count:route_count inst)
  in
  (states, texts)

let digest_lines a = Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list a)))

let digests (states, texts) =
  [ ("routes_digest", J.Str (digest_lines texts)); ("writes_digest", J.Str (digest_lines states)) ]

let child_route ~dir ~seed =
  Proc.announce_ready ();
  match Girg.Store.load_mmap ~path:(path dir "merged.bin") with
  | Ok inst -> Proc.report (digests (write_and_route ~seed inst))
  | Error e -> failwith ("load_mmap: " ^ e)

(* Check: merged snapshot bytes = direct generation's, and the
   heap-loaded instance routes and mutates exactly like the mapped one. *)
let child_check ~dir ~seed =
  Proc.announce_ready ();
  let read p = In_channel.with_open_bin (path dir p) In_channel.input_all in
  let same_bytes = String.equal (read "direct.bin") (read "merged.bin") in
  match Girg.Store.load ~path:(path dir "merged.bin") with
  | Ok inst -> Proc.report (("same_bytes", J.Bool same_bytes) :: digests (write_and_route ~seed inst))
  | Error e -> failwith ("load: " ^ e)

(* ------------------------------------------------------------------ *)
(* Parent *)

(* One pass: each phase's name and child run, in order. *)
let run_pass ~exe ~dir ~seed =
  let phase name args = (name, Bspan.with_ ("pipeline." ^ name) (fun () -> Proc.run exe ("child" :: args))) in
  let gen = phase "generate" [ "generate"; "--dir"; dir ] in
  let spills =
    List.init Fixture.pipeline_shards (fun i ->
        phase "spill" [ "spill"; "--dir"; dir; "--shard"; string_of_int i ])
  in
  let merge = phase "merge" [ "merge"; "--dir"; dir ] in
  let route = phase "route" [ "route"; "--dir"; dir; "--seed"; string_of_int seed ] in
  (gen :: spills) @ [ merge; route ]

(* Run the check child on a finished pass and compare it with the pass's
   route phase; returns (checks attempted, checks failed). *)
let check ~exe ~dir ~seed pass =
  let route = (List.assoc "route" pass).Proc.report in
  let c = (Proc.run exe [ "child"; "check"; "--dir"; dir; "--seed"; string_of_int seed ]).Proc.report in
  let same_bytes = J.member "same_bytes" c = Some (J.Bool true) in
  let same_routes = Proc.str c "routes_digest" = Proc.str route "routes_digest" in
  let same_writes = Proc.str c "writes_digest" = Proc.str route "writes_digest" in
  Printf.printf "pipeline: merged = direct bytes: %b; mmap = heap routes: %b, writes: %b\n%!" same_bytes
    same_routes same_writes;
  (3, List.length (List.filter not [ same_bytes; same_routes; same_writes ]))
