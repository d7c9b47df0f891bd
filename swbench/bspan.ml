(* The benchmark's own spans.  A traced run (--trace 1) records a span
   around each phase process, serving loop and check it runs, and
   around each layer's section of the unit-cost ladder; no span sits
   below that, inside a layer's calls.  An untraced run records
   nothing, so its end-to-end figures carry no tracing cost.  Spans
   stay in memory until the run ends. *)

type span = { id : int; parent : int; name : string; t0 : float; mutable t1 : float }

let on = ref false
let finished : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 1

let with_ name f =
  if not !on then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> 0 in
    let s = { id = !next_id; parent; name; t0 = Unix.gettimeofday (); t1 = nan } in
    incr next_id;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Unix.gettimeofday ();
        stack := List.tl !stack;
        finished := s :: !finished)
      f
  end

(* A span measured by the caller, at top level. *)
let record name t0 t1 =
  if !on then begin
    finished := { id = !next_id; parent = 0; name; t0; t1 } :: !finished;
    incr next_id
  end

let count () = List.length !finished

(* Seconds one span adds to the work it wraps: a batch of empty spans
   with recording on less the same batch with it off, per span (median
   of 5).  The spans it records are dropped again. *)
let cost_per_span () =
  let n = 100_000 in
  let saved_on = !on and saved = !finished and saved_id = !next_id in
  let batch flag =
    on := flag;
    let t = Unix.gettimeofday () in
    for _ = 1 to n do
      with_ "cost" ignore
    done;
    let d = Unix.gettimeofday () -. t in
    finished := saved;
    d
  in
  let d = Array.init 5 (fun _ -> let off = batch false in batch true -. off) in
  on := saved_on;
  next_id := saved_id;
  Array.sort Float.compare d;
  Float.max 0.0 (d.(2) /. float_of_int n)

(* Per name: invocations, inclusive seconds, and self seconds (inclusive
   minus the part covered by direct children). *)
let totals () =
  let spans = List.rev !finished in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      Hashtbl.replace child_time s.parent
        (d +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    spans;
  let acc = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      match Hashtbl.find_opt acc s.name with
      | Some (c, t, st) -> Hashtbl.replace acc s.name (c + 1, t +. d, st +. self)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace acc s.name (1, d, self))
    spans;
  List.rev_map (fun name -> let c, t, st = Hashtbl.find acc name in (name, c, t, st)) !order

let write path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc "{\"id\":%d,\"parent\":%d,\"name\":%S,\"t0\":%.6f,\"t1\":%.6f}\n"
            s.id s.parent s.name s.t0 s.t1)
        (List.rev !finished))
