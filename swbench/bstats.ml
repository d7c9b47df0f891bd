(* Summary statistics and the result line every run ends with. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of sorted data: the smallest sample with at
   least [p]% of the samples at or below it. *)
let rank ~n p =
  (* The epsilon keeps p*n/100 from rounding up past an exact rank. *)
  max 0 (min (n - 1) (int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9)) - 1))

let percentile s p =
  let n = Array.length s in
  if n = 0 then nan else s.(rank ~n p)

let median a = percentile (sorted a) 50.0

(* Samples strictly after the percentile's rank. *)
let beyond ~n p = n - 1 - rank ~n p

type tail = { pct : float; value : float; count : int; beyond : int }

let tail_candidates = [ 99.99; 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The highest candidate percentile that still has [min_beyond] samples
   beyond it, so a tail is never read off a handful of samples.  With
   fewer samples than that, the median is reported and [beyond] says
   how thin it is. *)
let tail ?(min_beyond = 10) a =
  let s = sorted a in
  let n = Array.length s in
  let pick p = { pct = p; value = percentile s p; count = n; beyond = beyond ~n p } in
  match List.find_opt (fun p -> beyond ~n p >= min_beyond) tail_candidates with
  | Some p -> pick p
  | None -> pick 50.0

(* Set-up time per start, from one group of [per_group] starts: their
   mean.  A group is sized to cover over a second of start-up work,
   never one start of a few ms.  A run takes three groups at different
   points and reports their median, so a burst of load on the shared
   box lands in one group, not in all three. *)
let setup_group ~per_group start =
  let total = ref 0.0 in
  for _ = 1 to per_group do
    total := !total +. start ()
  done;
  !total /. float_of_int per_group

(* ------------------------------------------------------------------ *)
(* Result line *)

module J = Obs.Export

type metric = { name : string; value : float; unit_ : string }

type result = { correct : bool; attempted : int; failed : int; metrics : metric list }

let metric name unit_ value = { name; value; unit_ }

let result_to_json r =
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun m -> (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit_) ]))
             r.metrics) );
    ]

let result_of_json j =
  let field name conv = Option.bind (J.member name j) conv in
  let to_int = function J.Int i -> Some i | _ -> None in
  let to_float = function J.Float f -> Some f | J.Int i -> Some (float_of_int i) | _ -> None in
  match
    ( field "correct" (function J.Bool b -> Some b | _ -> None),
      field "attempted" to_int,
      field "failed" to_int,
      J.member "metrics" j )
  with
  | Some correct, Some attempted, Some failed, Some (J.Obj ms) ->
      let metric (name, m) =
        match (Option.bind (J.member "value" m) to_float, J.member "unit" m) with
        | Some value, Some (J.Str unit_) -> Some { name; value; unit_ }
        | _ -> None
      in
      let metrics = List.filter_map metric ms in
      if List.length metrics = List.length ms then Ok { correct; attempted; failed; metrics }
      else Error "malformed metric entry"
  | _ -> Error "missing correct/attempted/failed/metrics"
