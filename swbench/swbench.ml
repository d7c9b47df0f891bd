(* The repository benchmark's entry point.  [run.py] builds this program and
   calls

     swbench run --workload W --seed N --seconds S --trace 0|1
                 --serve-exe PATH --work-dir DIR

   which runs one workload and prints one JSON result line last; the
   [child ...] subcommands are the phase processes it spawns. *)

open Swbench_lib

let workloads = [ "suite"; "serve-miss"; "serve-hot" ]

let arg args name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let req args name =
  match arg args name with Some v -> v | None -> failwith ("missing " ^ name)

let int_arg args name = int_of_string (req args name)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let child args =
  match args with
  | "ready" :: a ->
      Suite.prepare ~jobs:(int_arg a "--jobs");
      Proc.announce_ready ();
      Proc.report []
  | "suite" :: a ->
      Suite.child_pass ~seed:(int_arg a "--seed") ~jobs:(int_arg a "--jobs") ~out:(req a "--out")
  | "repeat" :: a -> Suite.child_repeat ~seed:(int_arg a "--seed")
  | "writes" :: a -> Suite.child_writes ~snapshot:(req a "--snapshot") ~chunk:(int_arg a "--chunk")
  | "generate" :: a -> Pipeline.child_generate ~dir:(req a "--dir")
  | "spill" :: a -> Pipeline.child_spill ~dir:(req a "--dir") ~shard:(int_arg a "--shard")
  | "merge" :: a -> Pipeline.child_merge ~dir:(req a "--dir")
  | "route" :: a -> Pipeline.child_route ~dir:(req a "--dir") ~seed:(int_arg a "--seed")
  | "check" :: a -> Pipeline.child_check ~dir:(req a "--dir") ~seed:(int_arg a "--seed")
  | "serve-prep" :: a ->
      Parallel.Global.set_jobs 2;
      Proc.announce_ready ();
      let inst = Fixture.generate ~seed:Fixture.serve_instance_seed (Fixture.serve_params ()) in
      Girg.Store.save_binary ~path:(req a "--out") inst;
      Proc.report []
  | "ladder" :: a -> Ladder.child ~workload:(req a "--workload") ~dir:(req a "--dir") ~seed:(int_arg a "--seed") ~spans:(req a "--spans")
  | "greedy-cost" :: a -> Ladder.child_greedy_cost ~dir:(req a "--dir") ~seed:(int_arg a "--seed") ~workload:(req a "--workload")
  | _ -> failwith ("unknown child command " ^ String.concat " " args)

(* One untraced or traced run of a workload: end-to-end metrics, or
   per-layer metrics. *)
let run args =
  let workload = req args "--workload" in
  if not (List.mem workload workloads) then failwith ("unknown workload " ^ workload);
  let seed = int_arg args "--seed" in
  let seconds = float_of_string (req args "--seconds") in
  let traced = req args "--trace" = "1" in
  let serve_exe = req args "--serve-exe" in
  let work = req args "--work-dir" in
  let repo = Option.value ~default:"." (arg args "--repo") in
  mkdir_p work;
  let exe = Sys.executable_name in
  let serve_snapshot () =
    let out = Filename.concat work "net.bin" in
    ignore (Proc.run exe [ "child"; "serve-prep"; "--out"; out ]);
    out
  in
  let e2e () =
    match workload with
    | "suite" ->
        let metrics, attempted, failed, _ = Suite.run ~exe ~repo ~work ~seed ~seconds in
        (metrics, attempted, failed)
    | _ ->
        let kind = if workload = "serve-miss" then Serving.Miss else Serving.Hot in
        let snapshot = serve_snapshot () in
        let o = Serving.run ~kind ~serve_exe ~snapshot ~seed ~seconds ~traced:false in
        (o.metrics, o.attempted, o.failed)
  in
  let metrics, attempted, failed =
    if not traced then e2e ()
    else Ladder.traced ~exe ~repo ~work ~seed ~seconds ~workload ~serve_exe ~serve_snapshot
  in
  let result = { Bstats.correct = failed = 0; attempted; failed; metrics } in
  List.iter (fun m -> Printf.printf "  %-40s %.6g %s\n" m.Bstats.name m.value m.unit_) metrics;
  (* Every value must be a number: a metric the run could not measure
     fails the run instead of printing a null. *)
  match List.filter (fun m -> not (Float.is_finite m.Bstats.value)) metrics with
  | [] -> print_endline (Obs.Export.json_to_string (Bstats.result_to_json result))
  | bad ->
      prerr_endline ("swbench: not measured: " ^ String.concat ", " (List.map (fun m -> m.Bstats.name) bad));
      exit 3

let () =
  (* Exit through at_exit, which stops every child still running. *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1))) [ Sys.sigterm; Sys.sigint ];
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run args
  | _ :: "child" :: args -> child args
  | _ ->
      prerr_endline "usage: swbench run --workload W --seed N --seconds S --trace 0|1 --serve-exe P --work-dir D";
      exit 2
