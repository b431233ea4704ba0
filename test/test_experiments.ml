(* Smoke tests over the experiment harness: every table must build, have
   consistent row widths, and report the expected verdicts ("yes"
   everywhere for the theorem experiments). These catch regressions in
   any protocol layer, since the experiments exercise all of them. *)

open Stellar_cup

let row_widths_consistent (t : Report.t) =
  let w = List.length t.header in
  List.for_all (fun r -> List.length r = w) t.rows

let check_table ?(expect_all_yes_in = []) (t : Report.t) =
  Alcotest.(check bool) (t.id ^ ": has rows") true (t.rows <> []);
  Alcotest.(check bool)
    (t.id ^ ": consistent widths")
    true (row_widths_consistent t);
  List.iter
    (fun col ->
      let idx =
        match List.find_index (String.equal col) t.header with
        | Some i -> i
        | None -> Alcotest.failf "%s: no column %S" t.id col
      in
      List.iter
        (fun row ->
          let cell = List.nth row idx in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s = yes in %s" t.id col
               (String.concat "," row))
            true
            (cell = "yes" || cell = "ok"))
        t.rows)
    expect_all_yes_in

let test_e1 () = check_table (Experiments.e1_fig1_example ())

let test_e2 () =
  let t = Experiments.e2_is_quorum () in
  check_table t;
  List.iter
    (fun row ->
      let result = List.nth row 2 in
      Alcotest.(check bool) "no FAIL cells" false (result = "FAIL"))
    t.rows

let test_e3 () =
  let t = Experiments.e3_theorem2_violation ~samples:1 () in
  check_table t;
  (* family rows must find the witness *)
  List.iter
    (fun row ->
      if List.hd row = "fig2-family" then
        Alcotest.(check string) "witness on family" "yes" (List.nth row 2))
    t.rows

let test_e4 () =
  let t = Experiments.e4_algorithm2_intertwined ~samples:1 () in
  check_table t;
  List.iter
    (fun row ->
      Alcotest.(check string) "always intertwined" "1/1" (List.nth row 2))
    t.rows

let test_e4b () =
  let t = Experiments.e4b_threshold_ablation () in
  check_table t;
  (* exactly one paper-marked row per (s, f) block, and it must be safe
     on both columns *)
  let marked =
    List.filter (fun row -> List.nth row 4 = "<- paper") t.rows
  in
  Alcotest.(check int) "two paper rows" 2 (List.length marked);
  List.iter
    (fun row ->
      Alcotest.(check string) "paper choice intersects" "yes"
        (List.nth row 2);
      Alcotest.(check string) "paper choice available" "yes"
        (List.nth row 3))
    marked

let test_e5 () =
  check_table
    ~expect_all_yes_in:[ "thm4 availability"; "thm5 cluster" ]
    (Experiments.e5_availability ~samples:1 ())

let test_e9 () =
  check_table ~expect_all_yes_in:[ "random graph k-OSR" ]
    (Experiments.e9_graph_machinery ())

let suites =
  [
    ( "experiments",
      [
        Alcotest.test_case "E1 shape" `Quick test_e1;
        Alcotest.test_case "E2 shape" `Quick test_e2;
        Alcotest.test_case "E3 shape" `Quick test_e3;
        Alcotest.test_case "E4 shape" `Quick test_e4;
        Alcotest.test_case "E4b ablation shape" `Quick test_e4b;
        Alcotest.test_case "E5 shape" `Quick test_e5;
        Alcotest.test_case "E9 shape" `Quick test_e9;
      ] );
  ]
