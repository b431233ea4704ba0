(* Golden-trace determinism: for a fixed seed, two independent runs
   must produce byte-identical JSONL traces and byte-identical metric
   dumps. This is the property the CI determinism gate re-checks on the
   built binary. *)

open Graphkit

let own_value i = Scp.Value.of_ints [ i ]

let threshold_system n t =
  let members = Pid.Set.of_range 1 n in
  Fbqs.Quorum.system_of_list
    (List.map
       (fun i -> (i, Fbqs.Slice.threshold ~members ~threshold:t))
       (Pid.Set.elements members))

(* One fully instrumented SCP run; returns (trace JSONL, metrics JSON). *)
let traced_scp_run ~seed () =
  let metrics = Obs.Metrics.create () in
  let buf = Buffer.create 4096 in
  let sink = Obs.Trace.to_buffer buf in
  let members = Pid.Set.of_range 1 4 in
  let cfg =
    {
      Scp.Runner.default_cfg with
      run =
        {
          Simkit.Run_config.default with
          seed;
          metrics = Some metrics;
          trace = Some sink;
        };
    }
  in
  let o =
    Scp.Runner.run_cfg ~cfg
      ~system:(threshold_system 4 3)
      ~peers_of:(fun _ -> members)
      ~initial_value_of:own_value
      ~fault_of:(fun _ -> None)
      ()
  in
  Alcotest.(check bool) "instrumented run decides" true o.all_decided;
  (Buffer.contents buf, Obs.Json.to_string (Obs.Metrics.to_json metrics))

let test_same_seed_same_trace () =
  let trace_a, metrics_a = traced_scp_run ~seed:42 () in
  let trace_b, metrics_b = traced_scp_run ~seed:42 () in
  Alcotest.(check bool) "trace is non-trivial" true
    (String.length trace_a > 100);
  Alcotest.(check string) "byte-identical traces" trace_a trace_b;
  Alcotest.(check string) "byte-identical metrics" metrics_a metrics_b

let test_different_seed_different_trace () =
  let trace_a, _ = traced_scp_run ~seed:1 () in
  let trace_b, _ = traced_scp_run ~seed:2 () in
  Alcotest.(check bool)
    "different delay streams diverge" true (trace_a <> trace_b)

let test_trace_shape () =
  (* Every line is a JSON object with the stamp fields; seq is dense
     from 0; run_start opens and run_end closes the stream. *)
  let trace, _ = traced_scp_run ~seed:7 () in
  let lines = String.split_on_char '\n' (String.trim trace) in
  List.iteri
    (fun i line ->
      let prefix = Printf.sprintf {|{"t":|} in
      Alcotest.(check bool)
        (Printf.sprintf "line %d is a stamped object" i)
        true
        (String.length line > String.length prefix
        && String.sub line 0 String.(length prefix) = prefix);
      let seq_marker = Printf.sprintf {|"seq":%d,|} i in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "line %d has seq %d" i i)
        true (contains line seq_marker))
    lines;
  let first = List.hd lines and last = List.nth lines (List.length lines - 1) in
  let has_ev line ev =
    let needle = Printf.sprintf {|"ev":"%s"|} ev in
    let nh = String.length line and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub line i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "opens with run_start" true (has_ev first "run_start");
  Alcotest.(check bool) "closes with run_end" true (has_ev last "run_end")

let test_sink_detector_trace_deterministic () =
  let traced ~seed =
    let buf = Buffer.create 4096 in
    let sink = Obs.Trace.to_buffer buf in
    let cfg = { Simkit.Run_config.default with seed; trace = Some sink } in
    let r =
      Cup.Sink_protocol.run_cfg ~cfg ~graph:Builtin.fig2 ~f:1
        ~fault_of:(fun _ -> None)
        ()
    in
    Alcotest.(check bool) "everyone answered" true
      (Pid.Map.cardinal r.answers
      = Pid.Set.cardinal (Digraph.vertices Builtin.fig2));
    Buffer.contents buf
  in
  Alcotest.(check string) "sink detector trace deterministic"
    (traced ~seed:5) (traced ~seed:5)

(* ---- pinned trace digests -------------------------------------------- *)

(* MD5 digests of the JSONL traces of fixed-seed runs. Any change to
   the order or content of SCP's vote/accept/confirm/ballot/decide
   events changes a digest, so optimisations of federated voting must
   leave every one of them untouched. Re-record them only for an
   intended protocol change. *)
let digest_of_trace run =
  let buf = Buffer.create 65536 in
  let sink = Obs.Trace.to_buffer buf in
  run { Simkit.Run_config.default with trace = Some sink };
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The consensus-sd shape: Algorithm 3, Algorithm 2 slices and SCP on a
   random 5-OSR graph with a sink of 7, 6 non-sink nodes, f = 2 and
   [faults] silent processes. *)
let sd_digest ~seed ~faults =
  let f = 2 in
  let graph =
    Generators.random_k_osr ~seed ~sink_size:7 ~non_sink:6
      ~k:((2 * f) + 1)
      ()
  in
  let faulty = Generators.random_faulty_set ~seed ~f:faults graph in
  digest_of_trace (fun rc ->
      let v =
        Stellar_cup.Pipeline.scp_with_sink_detector
          ~cfg:{ rc with seed }
          ~graph ~f ~faulty ~initial_value_of:own_value ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d, %d faults decides" seed faults)
        true
        (v.all_decided && v.agreement && v.validity))

let sd_golden =
  [
    (1, 0, "3d3ae0b4a1529abf8df7cb3697b26a7c");
    (2, 0, "0e7bc5efb2a8cd096437f18b5c59c006");
    (3, 0, "5680c407a2911f0df18038806ea0757c");
    (1, 1, "b6d9b912c3470bdb8a534b08ac879bd2");
    (2, 1, "545999163c0a8c1c1ed302b39a74d2ba");
    (3, 1, "a105b8c4a5e6985e853a1ba48b663c9e");
    (1, 2, "5c5ecca67d21ccada0d250f3d4c2dcb5");
    (2, 2, "adb1bb25eaaa7e975d2f91eb572b770d");
    (3, 2, "bad9f8549b673dc4aea1416f52c6cc98");
  ]

let test_sd_digests () =
  List.iter
    (fun (seed, faults, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "consensus-sd seed %d, %d faults" seed faults)
        expected (sd_digest ~seed ~faults))
    sd_golden

let scp_digest ?(nomination = Scp.Node.Echo_all) ~seed ~n ~t ~fault_of () =
  let members = Pid.Set.of_range 1 n in
  digest_of_trace (fun rc ->
      ignore
        (Scp.Runner.run_cfg
           ~cfg:
             { Scp.Runner.default_cfg with run = { rc with seed }; nomination }
           ~system:(threshold_system n t)
           ~peers_of:(fun _ -> members)
           ~initial_value_of:own_value ~fault_of ()))

let test_leader_priority_digest () =
  Alcotest.(check string) "leader-priority nomination"
    "2dbf40c699b3d70bc2630deee2c5b09e"
    (scp_digest ~nomination:(Scp.Node.Leader_priority 30) ~seed:3 ~n:7 ~t:5
       ~fault_of:(fun _ -> None)
       ())

let test_accept_forger_digest () =
  let evil = Scp.Ballot.make 99 (Scp.Value.of_ints [ 666 ]) in
  let fault_of i =
    if i = 5 then
      Some
        (Scp.Runner.Accept_forger
           [
             Scp.Statement.Nominate (Scp.Value.of_ints [ 666 ]);
             Scp.Statement.Prepare evil;
             Scp.Statement.Commit evil;
           ])
    else None
  in
  Alcotest.(check string) "accept forger" "ae1180c4bf109dd272fc7c33366f94ef"
    (scp_digest ~seed:4 ~n:5 ~t:4 ~fault_of ())

let test_slice_equivocator_digest () =
  let fault_of i =
    if i = 5 then
      Some
        (Scp.Runner.Slice_equivocator
           {
             split = (fun j -> j mod 2 = 0);
             slices_a = Fbqs.Slice.explicit [ Pid.Set.of_list [ 1; 2 ] ];
             slices_b = Fbqs.Slice.explicit [ Pid.Set.of_list [ 3; 4 ] ];
             value = Scp.Value.of_ints [ 50 ];
           })
    else None
  in
  Alcotest.(check string) "slice equivocator" "bb9b53b7810cf452a0e8cb585389d930"
    (scp_digest ~seed:5 ~n:5 ~t:4 ~fault_of ())

let suites =
  [
    ( "trace_golden",
      [
        Alcotest.test_case "same seed, same bytes" `Quick
          test_same_seed_same_trace;
        Alcotest.test_case "different seed diverges" `Quick
          test_different_seed_different_trace;
        Alcotest.test_case "JSONL shape + dense seq" `Quick test_trace_shape;
        Alcotest.test_case "sink detector deterministic" `Quick
          test_sink_detector_trace_deterministic;
        Alcotest.test_case "consensus-sd trace digests pinned" `Quick
          test_sd_digests;
        Alcotest.test_case "leader-priority trace digest pinned" `Quick
          test_leader_priority_digest;
        Alcotest.test_case "accept-forger trace digest pinned" `Quick
          test_accept_forger_digest;
        Alcotest.test_case "slice-equivocator trace digest pinned" `Quick
          test_slice_equivocator_digest;
      ] );
  ]
