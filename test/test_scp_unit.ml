open Scp

let v = Value.of_ints

let test_value_ops () =
  Alcotest.(check bool) "combine unions" true
    (Value.equal (v [ 1; 2; 3 ]) (Value.combine [ v [ 1 ]; v [ 2; 3 ] ]));
  Alcotest.(check bool) "combine empty" true
    (Value.equal Value.empty (Value.combine []));
  Alcotest.(check bool) "order by cardinality first" true
    (Value.compare (v [ 9 ]) (v [ 1; 2 ]) < 0);
  Alcotest.(check bool) "lexicographic tie-break" true
    (Value.compare (v [ 1; 3 ]) (v [ 1; 4 ]) <> 0)

let test_ballot_order () =
  let b1 = Ballot.make 1 (v [ 1 ]) in
  let b2 = Ballot.make 2 (v [ 1 ]) in
  let b1' = Ballot.make 1 (v [ 2 ]) in
  Alcotest.(check bool) "counter dominates" true (Ballot.compare b1 b2 < 0);
  Alcotest.(check bool) "compatible same value" true (Ballot.compatible b1 b2);
  Alcotest.(check bool) "incompatible different value" false
    (Ballot.compatible b1 b1');
  Alcotest.(check bool) "abort relation" true
    (Ballot.less_and_incompatible b1 (Ballot.make 2 (v [ 2 ])));
  Alcotest.(check bool) "no abort when compatible" false
    (Ballot.less_and_incompatible b1 b2)

let test_statement_implication () =
  let b = Ballot.make 3 (v [ 7 ]) in
  match Statement.implied (Statement.Commit b) with
  | [ Statement.Prepare b' ] ->
      Alcotest.(check bool) "commit implies prepare of same ballot" true
        (Ballot.equal b b')
  | _ -> Alcotest.fail "commit must imply exactly its prepare"

(* Federated voting over a 3-of-4 threshold system. *)
let threshold_system n t =
  let members = Graphkit.Pid.Set.of_range 1 n in
  Fbqs.Quorum.system_of_list
    (List.map
       (fun i -> (i, Fbqs.Slice.threshold ~members ~threshold:t))
       (Graphkit.Pid.Set.elements members))

let test_fv_accept_via_quorum () =
  let sys = threshold_system 4 3 in
  let fv = Fvoting.create ~self:1 ~system:(fun () -> sys) () in
  let stmt = Statement.Nominate (v [ 5 ]) in
  Alcotest.(check bool) "nothing yet" false (Fvoting.can_accept fv stmt);
  Fvoting.record_vote fv stmt 1;
  Fvoting.record_vote fv stmt 2;
  Alcotest.(check bool) "2 of 4 votes insufficient" false
    (Fvoting.can_accept fv stmt);
  Fvoting.record_vote fv stmt 3;
  Alcotest.(check bool) "3 of 4 votes suffice" true
    (Fvoting.can_accept fv stmt)

let test_fv_accept_requires_own_membership () =
  let sys = threshold_system 4 3 in
  let fv = Fvoting.create ~self:1 ~system:(fun () -> sys) () in
  let stmt = Statement.Nominate (v [ 5 ]) in
  (* A quorum that does not include node 1 does not let 1 accept via
     the quorum arm. *)
  Fvoting.record_vote fv stmt 2;
  Fvoting.record_vote fv stmt 3;
  Fvoting.record_vote fv stmt 4;
  Alcotest.(check bool) "quorum arm requires own vote" false
    (Fvoting.quorum_votes fv stmt)

let test_fv_accept_via_blocking () =
  let sys = threshold_system 4 3 in
  let fv = Fvoting.create ~self:1 ~system:(fun () -> sys) () in
  let stmt = Statement.Nominate (v [ 5 ]) in
  (* v-blocking for threshold 3-of-4: leave fewer than 3 slots, i.e.
     any 2 of the other members. *)
  Fvoting.record_accept fv stmt 2;
  Alcotest.(check bool) "one acceptor not blocking" false
    (Fvoting.blocking_accepts fv stmt);
  Fvoting.record_accept fv stmt 3;
  Alcotest.(check bool) "two acceptors blocking" true
    (Fvoting.blocking_accepts fv stmt);
  Alcotest.(check bool) "accept now possible without own vote" true
    (Fvoting.can_accept fv stmt)

let test_fv_confirm () =
  let sys = threshold_system 4 3 in
  let fv = Fvoting.create ~self:1 ~system:(fun () -> sys) () in
  let stmt = Statement.Nominate (v [ 5 ]) in
  Fvoting.record_accept fv stmt 1;
  Fvoting.record_accept fv stmt 2;
  Alcotest.(check bool) "2 acceptors no confirm" false
    (Fvoting.can_confirm fv stmt);
  Fvoting.record_accept fv stmt 3;
  Alcotest.(check bool) "3 acceptors confirm" true
    (Fvoting.can_confirm fv stmt)

let test_fv_commit_implies_prepare_tally () =
  let sys = threshold_system 4 3 in
  let fv = Fvoting.create ~self:1 ~system:(fun () -> sys) () in
  let b = Ballot.make 1 (v [ 5 ]) in
  Fvoting.record_vote fv (Statement.Commit b) 2;
  let tl = Fvoting.tally fv (Statement.Prepare b) in
  Alcotest.(check bool) "commit vote counted for prepare" true
    (Graphkit.Pid.Set.mem 2 tl.voters)

(* ---- incremental evaluation -------------------------------------------- *)

(* The statements [iter_dirty] hands out, in order. *)
let due fv =
  let seen = ref [] in
  Fvoting.iter_dirty fv (fun s -> seen := s :: !seen);
  List.rev !seen

let stmts = Alcotest.testable Statement.pp Statement.equal

let test_fv_dirty_tracking () =
  let sys = ref (threshold_system 4 3) in
  let fv = Fvoting.create ~self:1 ~system:(fun () -> !sys) () in
  let nom = Statement.Nominate (v [ 5 ]) in
  let p n x = Statement.Prepare (Ballot.make n (v [ x ])) in
  Fvoting.record_vote fv nom 2;
  List.iter
    (fun s -> Fvoting.record_vote fv s 3)
    [ p 1 7; p 1 8; p 2 7; p 3 7 ];
  Alcotest.(check (list stmts)) "new statements are due"
    [ nom; p 1 7; p 1 8; p 2 7; p 3 7 ] (due fv);
  Alcotest.(check (list stmts)) "then clean" [] (due fv);
  Fvoting.record_vote fv nom 2;
  Alcotest.(check (list stmts)) "a repeated vote changes nothing" [] (due fv);
  Fvoting.record_accept fv nom 2;
  Alcotest.(check (list stmts)) "an acceptance is new" [ nom ] (due fv);
  Fvoting.record_vote fv (p 2 7) 4;
  Alcotest.(check (list stmts))
    "a prepare also feeds the compatible lower prepares" [ p 1 7; p 2 7 ]
    (due fv);
  let c18 = Statement.Commit (Ballot.make 1 (v [ 8 ])) in
  Fvoting.record_vote fv c18 4;
  Alcotest.(check (list stmts)) "a commit also feeds its prepare"
    [ p 1 8; c18 ] (due fv);
  Fvoting.mark_accepted fv nom;
  Alcotest.(check (list stmts)) "own marks change no input" [] (due fv);
  Fvoting.record_accept fv nom 3;
  Fvoting.iter_dirty fv (fun s -> Fvoting.record_accept fv s 1);
  Alcotest.(check (list stmts)) "a change made while visiting makes it due"
    [ nom ] (due fv);
  sys := threshold_system 4 2;
  Alcotest.(check int) "new slice knowledge makes everything due" 6
    (List.length (due fv))

(* A settled node (every correct node decided) evaluates nothing when
   it is handed a replayed envelope or a fresh envelope that carries
   nothing new — even though it still holds a statement it never
   accepted (an orphan prepare only an outsider voted for), which a full
   rescan would re-check after every envelope. *)
let test_settled_node_evaluates_nothing () =
  let metrics = Obs.Metrics.create () in
  let sys = threshold_system 4 3 in
  let members = Graphkit.Pid.Set.of_range 1 4 in
  let engine =
    Simkit.Engine.create_cfg
      { Simkit.Run_config.default with seed = 1; max_time = 10_000 }
  in
  let decided = ref 0 in
  Graphkit.Pid.Set.iter
    (fun i ->
      Simkit.Engine.add_node engine i
        (Node.behavior ~metrics
           {
             Node.self = i;
             my_slices = Fbqs.Quorum.slices_of sys i;
             initial_peers = members;
             initial_value = v [ i ];
             ballot_timeout = 40;
             nomination = Node.Echo_all;
             on_decide = (fun _ _ -> incr decided);
           }))
    members;
  let checks = Obs.Metrics.counter metrics "scp_quorum_checks" in
  let orphan () =
    Msg.vote 5
      ~slices:(Fbqs.Slice.threshold ~members ~threshold:3)
      (Statement.Prepare (Ballot.make 1 (v [ 99 ])))
  in
  (* Node 2 already voted this and its first declaration is pinned, so
     the other slices only make the envelope new, not informative. *)
  let uninformative =
    Msg.vote 2
      ~slices:(Fbqs.Slice.threshold ~members ~threshold:1)
      (Statement.Nominate (v [ 2 ]))
  in
  let decided_at_replay = ref 0 and before = ref 0 and after = ref 0 in
  Simkit.Engine.add_node engine 5
    {
      Simkit.Engine.idle_behavior with
      on_start =
        (fun ctx ->
          Simkit.Engine.send ctx 1 (orphan ());
          Simkit.Engine.set_timer ctx ~delay:5_000 "replay";
          Simkit.Engine.set_timer ctx ~delay:8_000 "check");
      on_timer =
        (fun ctx tag ->
          if tag = "replay" then begin
            decided_at_replay := !decided;
            before := Obs.Metrics.counter_value checks;
            Simkit.Engine.send ctx 1 (orphan ());
            Simkit.Engine.send ctx 1 uninformative
          end
          else after := Obs.Metrics.counter_value checks);
    };
  ignore (Simkit.Engine.run engine);
  Alcotest.(check int) "settled before the replay" 4 !decided_at_replay;
  Alcotest.(check bool) "the run evaluated statements" true (!before > 0);
  Alcotest.(check int) "no quorum check after settling" !before !after

(* The instrumented seed-1 run of BENCH_quorum.json: skipping clean
   statements may only change how many evaluations (and quorum-cache
   lookups) happen, never a message, vote, accept, confirm, ballot or
   decision count. *)
let evaluation_counters =
  [
    "scp_quorum_checks";
    "scp_vblocking_checks";
    "fbqs_cache_hits";
    "fbqs_cache_misses";
  ]

let behaviour_counters json =
  let metrics =
    match json with
    | Obs.Json.Obj fields -> (
        match List.assoc_opt "metrics" fields with
        | Some (Obs.Json.List l) -> l
        | _ -> Alcotest.fail "no metrics list")
    | _ -> Alcotest.fail "not an object"
  in
  List.filter_map
    (function
      | Obs.Json.Obj fields as m -> (
          match List.assoc_opt "name" fields with
          | Some (Obs.Json.String name) ->
              if List.mem name evaluation_counters then None
              else Some (name, Obs.Json.to_string m)
          | _ -> Alcotest.fail "unnamed metric")
      | _ -> Alcotest.fail "metric is not an object")
    metrics

let test_bench_counters_unchanged () =
  let committed =
    let ic = open_in_bin "../BENCH_quorum.json" in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Obs.Json.of_string text with
    | Ok (Obs.Json.Obj fields) -> (
        match List.assoc_opt "counters" fields with
        | Some (Obs.Json.Obj c) -> List.assoc "scp_4node_seed1" c
        | _ -> Alcotest.fail "no counters object")
    | Ok _ | Error _ -> Alcotest.fail "BENCH_quorum.json does not parse"
  in
  let metrics = Obs.Metrics.create () in
  let cfg =
    {
      Runner.default_cfg with
      run = { Simkit.Run_config.default with seed = 1; metrics = Some metrics };
    }
  in
  ignore
    (Runner.run_cfg ~cfg ~system:(threshold_system 4 3)
       ~peers_of:(fun _ -> Graphkit.Pid.Set.of_range 1 4)
       ~initial_value_of:(fun i -> v [ i ])
       ~fault_of:(fun _ -> None)
       ());
  Alcotest.(check (list (pair string string)))
    "behaviour counters = committed BENCH_quorum.json"
    (behaviour_counters committed)
    (behaviour_counters (Obs.Metrics.to_json metrics))

let suites =
  [
    ( "scp_unit",
      [
        Alcotest.test_case "value operations" `Quick test_value_ops;
        Alcotest.test_case "ballot order" `Quick test_ballot_order;
        Alcotest.test_case "statement implication" `Quick
          test_statement_implication;
        Alcotest.test_case "FV accept via quorum" `Quick
          test_fv_accept_via_quorum;
        Alcotest.test_case "FV quorum arm needs own vote" `Quick
          test_fv_accept_requires_own_membership;
        Alcotest.test_case "FV accept via v-blocking" `Quick
          test_fv_accept_via_blocking;
        Alcotest.test_case "FV confirm" `Quick test_fv_confirm;
        Alcotest.test_case "FV commit implies prepare" `Quick
          test_fv_commit_implies_prepare_tally;
      ] );
    ( "scp_incremental",
      [
        Alcotest.test_case "dirty statements follow their inputs" `Quick
          test_fv_dirty_tracking;
        Alcotest.test_case "settled node evaluates nothing" `Quick
          test_settled_node_evaluates_nothing;
        Alcotest.test_case "behaviour counters match BENCH_quorum.json" `Quick
          test_bench_counters_unchanged;
      ] );
  ]
