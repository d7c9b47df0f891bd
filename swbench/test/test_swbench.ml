(* The benchmark's own helpers: the percentile helper, the grouped
   set-up time, the result line, and the serving client's framing
   against a live daemon. *)

open Swbench_lib
module V1 = Api.V1

(* ------------------------------------------------------------------ *)
(* Write placement *)

let test_write_placement () =
  List.iter
    (fun (name, kind) ->
      let plan = Serving.plan_of kind in
      let total = plan.Serving.warm + (3 * plan.pass) in
      let rec positions j acc =
        let i = Serving.write_index plan j in
        if i >= total then List.rev acc else positions (j + 1) (i :: acc)
      in
      let pos = Array.of_list (positions 0 []) in
      Alcotest.(check int) (name ^ ": writes") (plan.warm_writes + (3 * plan.pass / plan.write_every)) (Array.length pos);
      Array.iteri
        (fun j i ->
          if j > 0 && (i <= pos.(j - 1) || i mod 2 = pos.(j - 1) mod 2) then
            Alcotest.failf "%s: write %d at %d does not follow write %d at %d on the other connection" name j i
              (j - 1) pos.(j - 1))
        pos;
      (* The hot set re-warms inside the warm-up. *)
      Alcotest.(check bool) (name ^ ": warm-up ends with reads") true
        (pos.(plan.warm_writes - 1) < plan.warm / 2);
      let before = ref 0 in
      for i = 0 to total - 1 do
        Alcotest.(check int) (Printf.sprintf "%s: writes before %d" name i) !before (Serving.writes_before plan i);
        let expected = if !before < Array.length pos && pos.(!before) = i then Some !before else None in
        Alcotest.(check (option int)) (Printf.sprintf "%s: write at %d" name i) expected (Serving.write_number plan i);
        if expected <> None then incr before
      done)
    [ ("serve-miss", Serving.Miss); ("serve-hot", Serving.Hot) ]

(* ------------------------------------------------------------------ *)
(* Percentile helper *)

let ramp n = Array.init n (fun i -> float_of_int (n - i))

let check_tail n ~pct ~value ~beyond =
  let t = Bstats.tail (ramp n) in
  Alcotest.(check (float 0.0)) (Printf.sprintf "pct at n=%d" n) pct t.Bstats.pct;
  Alcotest.(check (float 0.0)) (Printf.sprintf "value at n=%d" n) value t.value;
  Alcotest.(check int) (Printf.sprintf "count at n=%d" n) n t.count;
  Alcotest.(check int) (Printf.sprintf "beyond at n=%d" n) beyond t.beyond

let test_tail () =
  (* 1000 samples: p99 is the 990th, ten lie beyond it. *)
  check_tail 1000 ~pct:99.0 ~value:990.0 ~beyond:10;
  (* 999 samples: p99 would leave only nine beyond; p95 leaves 49. *)
  check_tail 999 ~pct:95.0 ~value:950.0 ~beyond:49;
  check_tail 10_000 ~pct:99.9 ~value:9990.0 ~beyond:10;
  check_tail 100 ~pct:90.0 ~value:90.0 ~beyond:10;
  (* Too few for any tail: the median, with its thin count. *)
  check_tail 5 ~pct:50.0 ~value:3.0 ~beyond:2

let test_percentile () =
  let s = Bstats.sorted [| 4.0; 1.0; 3.0; 2.0 |] in
  Alcotest.(check (float 0.0)) "p50" 2.0 (Bstats.percentile s 50.0);
  Alcotest.(check (float 0.0)) "p75" 3.0 (Bstats.percentile s 75.0);
  Alcotest.(check (float 0.0)) "p100" 4.0 (Bstats.percentile s 100.0);
  Alcotest.(check (float 0.0)) "median" 2.0 (Bstats.median [| 2.0; 9.0; 1.0 |])

let test_setup_group () =
  let starts = ref [ 1.0; 2.0; 6.0; 99.0 ] in
  let next () = match !starts with x :: rest -> starts := rest; x | [] -> Alcotest.fail "too many starts" in
  Alcotest.(check (float 0.0)) "mean of the group's starts" 3.0 (Bstats.setup_group ~per_group:3 next);
  Alcotest.(check int) "exactly per_group starts" 1 (List.length !starts)

(* ------------------------------------------------------------------ *)
(* Result line *)

let test_result_roundtrip () =
  let r =
    {
      Bstats.correct = true;
      attempted = 1234;
      failed = 0;
      metrics =
        [ Bstats.metric "setup_s" "s" 0.1234567890123;
          Bstats.metric "route_p99_ms" "ms" 23.000000000000004;
          Bstats.metric "throughput_rps" "req/s" 1e5 ];
    }
  in
  let line = Obs.Export.json_to_string (Bstats.result_to_json r) in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  match Obs.Export.json_of_string line with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Bstats.result_of_json j with
      | Error e -> Alcotest.fail e
      | Ok r' ->
          Alcotest.(check bool) "correct" r.correct r'.correct;
          Alcotest.(check int) "attempted" r.attempted r'.attempted;
          Alcotest.(check int) "failed" r.failed r'.failed;
          List.iter2
            (fun (a : Bstats.metric) (b : Bstats.metric) ->
              Alcotest.(check string) "name" a.name b.name;
              Alcotest.(check string) "unit" a.unit_ b.unit_;
              Alcotest.(check bool) (a.name ^ " exact") true (Float.equal a.value b.value))
            r.metrics r'.metrics)

(* ------------------------------------------------------------------ *)
(* Client framing against a live daemon *)

let test_client_framing () =
  let model = V1.Girg (Girg.Params.make ~n:2000 ~beta:2.5 ~c:0.3 ()) in
  let t = Server.Daemon.create { Server.Daemon.default_config with port = 0; workers = 1 } in
  (match Server.Exec.handle (Server.Daemon.exec t) (V1.Sample { name = "net"; model; seed = 3 }) with
  | V1.Sampled _ -> ()
  | _ -> Alcotest.fail "sample failed");
  let server = Domain.spawn (fun () -> Server.Daemon.serve t) in
  Fun.protect
    ~finally:(fun () ->
      Server.Daemon.stop t;
      Domain.join server)
    (fun () ->
      let local = Api.Render.instantiate ~model ~seed:3 in
      let port = Server.Daemon.port t in
      let n = Sparse_graph.Graph.n local.Girg.Instance.graph in
      List.iter
        (fun codec ->
          let c = Wire.connect ~port codec in
          Fun.protect ~finally:(fun () -> Wire.close c) (fun () ->
              for i = 0 to 19 do
                let s, d = Fixture.uniform_pair ~seed:i ~n i in
                let raw, reply =
                  Wire.rpc c (V1.envelope ~id:i (V1.Route { instance = "net"; source = s; target = d;
                                                             protocol = Greedy_routing.Protocol.Greedy; max_steps = None }))
                in
                let expected =
                  match Api.Render.route ~inst:local ~protocol:Greedy_routing.Protocol.Greedy ~source:s ~target:d () with
                  | Ok r -> { V1.reply_id = Some i; response = V1.Routed r }
                  | Error _ -> Alcotest.fail "local route failed"
                in
                Alcotest.(check string) (Wire.codec_name codec ^ " raw reply") (Wire.encode_reply codec expected) raw;
                match reply with
                | Ok r -> Alcotest.(check bool) "decoded" true (r = expected)
                | Error e -> Alcotest.fail (Api.Error.to_string e)
              done;
              let ops = Fixture.write_script ~seed:5 local 0 in
              match Wire.rpc c (V1.envelope ~id:99 (V1.Mutate { instance = "net"; ops; seed = 5 })) with
              | _, Ok { V1.response = V1.Mutated m; reply_id = Some 99 } ->
                  Alcotest.(check int) "applied" 2 m.V1.mu_applied
              | _ -> Alcotest.fail "mutate reply"))
        [ Wire.Json; Wire.Binary ])

let () =
  Alcotest.run "swbench"
    [
      ( "stats",
        [ Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "setup group" `Quick test_setup_group ] );
      ("serving", [ Alcotest.test_case "write placement" `Quick test_write_placement ]);
      ("result", [ Alcotest.test_case "json round trip" `Quick test_result_roundtrip ]);
      ("wire", [ Alcotest.test_case "framing vs live daemon" `Quick test_client_framing ]);
    ]
