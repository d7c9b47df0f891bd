(* The fixed instances and the seeded inputs the workloads draw from.
   Instances are fixed per workload (heavy-tailed weights make two
   instances differ far more than two request streams do); the workload
   seed only drives pairs, hot sets and mutation scripts. *)

module G = Sparse_graph.Graph
module Rng = Prng.Rng

(* serve-*: the ROADMAP re-anchor instance (n=10^5, beta=2.5, c=0.15,
   ~523k edges, giant component ~99% of the vertices). *)
let serve_params () = Girg.Params.make ~n:100_000 ~beta:2.5 ~c:0.15 ()
let serve_instance_seed = 1

(* pipeline: twice the serving instance, so every phase runs for
   seconds. *)
let pipeline_params () = Girg.Params.make ~n:200_000 ~beta:2.5 ~c:0.15 ()
let pipeline_instance_seed = 2
let pipeline_shards = 4

let generate ?sampler ~seed params =
  Girg.Instance.generate ?sampler ~rng:(Rng.create ~seed) params

(* The instance E18 churns at Quick scale for a given context seed (the
   same parameters and rng salt as the experiment). *)
let e18_instance ~seed =
  let ctx = Experiments.Context.make ~seed ~scale:Experiments.Context.Quick () in
  let rng = Experiments.Context.rng ctx ~salt:18_000 in
  Girg.Instance.generate ~rng (Girg.Params.make ~dim:2 ~beta:2.5 ~c:0.25 ~n:4096 ())

(* One independent substream per (seed, stream, index): request [i]'s
   input never depends on which connection sends it or when. *)
let draw ~seed ~stream i =
  Rng.of_mixed_triple ~base:(Rng.mix64 (Int64.of_int seed)) ~a:stream ~b:i ~c:0

let uniform_pair ~seed ~n i =
  let r = draw ~seed ~stream:1 i in
  let s = Rng.int r n in
  let rec other () = let t = Rng.int r n in if t = s then other () else t in
  (s, other ())

(* Uniform pairs stratified on connectivity.  [share] is the chance
   that a uniform pair is disconnected; in every block of [block]
   requests exactly round(share * block) of them, evenly spaced, get a
   pair drawn uniformly from the disconnected pairs, the rest one drawn
   uniformly from the connected pairs.  The share is the instance's own,
   but it no longer varies from block to block. *)
type strata = { comps : Sparse_graph.Components.t; share : float }

let strata (inst : Girg.Instance.t) =
  let module C = Sparse_graph.Components in
  let comps = C.compute inst.graph in
  let n = float_of_int (G.n inst.graph) in
  let same = ref 0.0 in
  for c = 0 to C.count comps - 1 do
    let s = float_of_int (C.size comps c) in
    same := !same +. (s *. (s -. 1.0))
  done;
  { comps; share = 1.0 -. (!same /. (n *. (n -. 1.0))) }

let stratified_pair st ~seed ~n ~block ~offset i =
  let r = if i >= offset then (i - offset) mod block else i mod block in
  let k = int_of_float (Float.round (st.share *. float_of_int block)) in
  let disconnected = (r + 1) * k / block > r * k / block in
  let rng = draw ~seed ~stream:1 i in
  let rec go () =
    let s = Rng.int rng n and t = Rng.int rng n in
    if s = t || Sparse_graph.Components.same st.comps s t = disconnected then go () else (s, t)
  in
  go ()

let hot_set ~seed ~count (inst : Girg.Instance.t) =
  Experiments.Workload.sample_pairs_giant ~rng:(draw ~seed ~stream:3 0) ~graph:inst.graph ~count

let hot_pair ~seed hot i = hot.(Rng.int (draw ~seed ~stream:4 i) (Array.length hot))

(* The write scripts are fixed, like the instances: every run applies
   the same writes whatever its seed.  A write's cost follows the state
   of the overlay's dropped-edge table, which the degrees of the
   resampled vertices set, and those are heavy-tailed: back to back on
   one box, serve-hot's write_p50_ms read 147 ms at seed 102 and 203 ms
   at seed 103.  The seed still drives pairs, hot sets and the suite's
   repeat check. *)
let write_seed = 42

(* Write [j]: drop one edge of the base graph, resample one vertex. *)
let write_script ~seed (base : Girg.Instance.t) j =
  let r = draw ~seed ~stream:2 j in
  let g = base.graph in
  let n = G.n g in
  let rec edge () =
    let u = Rng.int r n in
    let d = G.degree g u in
    if d = 0 then edge () else (u, (G.neighbors g u).(Rng.int r d))
  in
  let u, v = edge () in
  [ Girg.Mutate.Drop (u, v); Girg.Mutate.Resample (Rng.int r n) ]

let giant_pairs ~seed ~count (inst : Girg.Instance.t) =
  Experiments.Workload.sample_pairs_giant ~rng:(draw ~seed ~stream:5 0) ~graph:inst.graph ~count
