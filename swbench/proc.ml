(* Child processes.  Every phase whose start-up or peak memory is
   measured runs in a process of its own: the child prints "ready" once
   it is initialised, may print progress lines, and ends with one JSON
   line; the parent times spawn -> "ready" and reads the JSON. *)

let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; rest ] ->
                 Scanf.sscanf_opt (String.trim rest) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
             | _ -> None)
      |> Option.value ~default:nan

let self_vmhwm_mb () = vmhwm_mb "self"

(* Pids still running, killed at exit whatever happens, so no child
   outlives the benchmark. *)
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

type t = { pid : int; out : in_channel; spawned : float }

let spawn ?(env = []) prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let environment =
    Array.append
      (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) env))
      (Array.of_list
         (List.filter
            (fun kv -> not (List.exists (fun (k, _) -> String.starts_with ~prefix:(k ^ "=") kv) env))
            (Array.to_list (Unix.environment ()))))
  in
  let spawned = Unix.gettimeofday () in
  let pid =
    Unix.create_process_env prog (Array.of_list (prog :: args)) environment Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  live := pid :: !live;
  { pid; out = Unix.in_channel_of_descr r; spawned }

let input_line c = In_channel.input_line c.out

(* Seconds from spawn until the child announced it was ready. *)
let wait_ready c =
  match input_line c with
  | Some "ready" -> Unix.gettimeofday () -. c.spawned
  | Some line -> failwith (Printf.sprintf "child %d: expected ready, got %S" c.pid line)
  | None -> failwith (Printf.sprintf "child %d exited before it was ready" c.pid)

let reap c =
  let _, status = Unix.waitpid [] c.pid in
  live := List.filter (( <> ) c.pid) !live;
  close_in_noerr c.out;
  status

(* Read the child's remaining output and wait for it; its last line is
   its JSON report. *)
let finish c =
  let rec last prev = match input_line c with Some l -> last (Some l) | None -> prev in
  let line = last None in
  let status = reap c in
  match (status, line) with
  | Unix.WEXITED 0, Some l -> (
      match Obs.Export.json_of_string l with
      | Ok j -> j
      | Error e -> failwith (Printf.sprintf "child %d: bad report %S: %s" c.pid l e))
  | _ -> failwith (Printf.sprintf "child %d failed" c.pid)

type run = { ready_s : float; wall_s : float; report : Obs.Export.json }

(* Spawn, wait for ready, wait for the report. *)
let run ?env prog args =
  let c = spawn ?env prog args in
  let ready_s = wait_ready c in
  let report = finish c in
  { ready_s; wall_s = Unix.gettimeofday () -. c.spawned; report }

(* Child side. *)
let announce_ready () =
  print_endline "ready";
  flush stdout

let report fields =
  print_endline
    (Obs.Export.json_to_string
       (Obs.Export.Obj (fields @ [ ("vmhwm_mb", Obs.Export.Float (self_vmhwm_mb ())) ])))

let num j name =
  match Obs.Export.member name j with
  | Some (Obs.Export.Float f) -> f
  | Some (Obs.Export.Int i) -> float_of_int i
  | _ -> failwith ("report lacks " ^ name)

let floats j name =
  match Obs.Export.member name j with
  | Some (Obs.Export.Arr xs) ->
      Array.of_list
        (List.map
           (function
             | Obs.Export.Float f -> f | Obs.Export.Int i -> float_of_int i | _ -> nan)
           xs)
  | _ -> failwith ("report lacks " ^ name)

let str j name =
  match Obs.Export.member name j with Some (Obs.Export.Str s) -> s | _ -> failwith ("report lacks " ^ name)
