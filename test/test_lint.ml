(* stellar-lint self-tests, syntactic phase: every rule fires on its
   positive fixture and stays silent on the negative one, per-site
   allow comments suppress, and the path scoping (bench/, lib/obs/,
   the lib/sim executor library) is honoured. Fixtures are parsed by
   compiler-libs only — they are never compiled, so they can violate
   the rules freely. The typed phase (R1/R2/P1/T1) is covered by
   Test_lint_typed over the compiled typed_fixtures corpus. *)

let fx name = Filename.concat "lint_fixtures" name

let run ?(rel = "lib/cup/fixture.ml") name =
  Rules_syntactic.lint_source ~rel (fx name)

let brief (f : Lint_core.finding) = (f.line, f.rule)

let check_active msg expected (report : Lint_core.report) =
  Alcotest.(check (list (pair int string)))
    msg expected
    (List.map brief report.active)

let test_d1 () =
  check_active "d1 positives" [ (2, "D1"); (3, "D1") ] (run "d1_pos.ml");
  check_active "d1 negatives" [] (run "d1_neg.ml")

let test_d1_allow () =
  let r = run "d1_allow.ml" in
  check_active "allow comment gates nothing" [] r;
  Alcotest.(check (list (pair int string)))
    "finding recorded as suppressed" [ (4, "D1") ]
    (List.map brief r.suppressed)

let test_d2 () =
  check_active "d2 positives"
    [ (2, "D2"); (3, "D2"); (4, "D2"); (5, "D2") ]
    (run "d2_pos.ml");
  check_active "d2 negatives" [] (run "d2_neg.ml");
  check_active "entropy is legal in bench/" []
    (run ~rel:"bench/fixture.ml" "d2_pos.ml")

let test_d3 () =
  check_active "d3 positives"
    [ (2, "D3"); (3, "D3"); (4, "D3"); (5, "D3") ]
    (run "d3_pos.ml");
  check_active "d3 negatives" [] (run "d3_neg.ml")

let test_d4 () =
  check_active "d4 positives" [ (2, "D4"); (3, "D4") ] (run "d4_pos.ml");
  check_active "d4 negatives" [] (run "d4_neg.ml");
  check_active "Marshal is flagged in lib/sim/pool.ml too"
    [ (2, "D4"); (3, "D4") ]
    (run ~rel:"lib/sim/pool.ml" "d4_pos.ml");
  check_active "Marshal is flagged in Simkit.Exec too"
    [ (2, "D4"); (3, "D4") ]
    (run ~rel:"lib/sim/exec.ml" "d4_pos.ml")

let test_d5 () =
  check_active "d5 positives"
    [ (2, "D5"); (3, "D5") ]
    (run ~rel:"lib/obs/fixture.ml" "d5_pos.ml");
  check_active "d5 negatives" [] (run ~rel:"lib/obs/fixture.ml" "d5_neg.ml");
  check_active "float formats are legal outside lib/obs" [] (run "d5_pos.ml")

let test_d6 () =
  check_active "d6 positives"
    [ (2, "D6"); (3, "D6"); (4, "D6"); (5, "D6"); (6, "D6") ]
    (run "d6_pos.ml");
  check_active "d6 negatives" [] (run "d6_neg.ml");
  check_active "parallelism primitives are legal under lib/sim" []
    (run ~rel:"lib/sim/exec_domains_native.ml" "d6_pos.ml")

let test_m1 () =
  let files dir =
    Sys.readdir (fx dir) |> Array.to_list |> List.sort String.compare
    |> List.map (fun f -> "lib/" ^ dir ^ "/" ^ f)
  in
  let all = files "m1_pos" @ files "m1_neg" in
  let mls = List.filter (fun f -> Filename.check_suffix f ".ml") all in
  let mlis = List.filter (fun f -> Filename.check_suffix f ".mli") all in
  Alcotest.(check (list (pair string string)))
    "lonely.ml flagged, paired.ml not"
    [ ("lib/m1_pos/lonely.ml", "M1") ]
    (List.map
       (fun (f : Lint_core.finding) -> (f.file, f.rule))
       (Rules_syntactic.rule_m1 ~ml_files:mls ~mli_files:mlis));
  Alcotest.(check (list (pair string string)))
    "bin/ modules never need an mli" []
    (List.map
       (fun (f : Lint_core.finding) -> (f.file, f.rule))
       (Rules_syntactic.rule_m1 ~ml_files:[ "bin/cli.ml" ] ~mli_files:[]))

let test_allow_parsing () =
  Alcotest.(check (list string))
    "multi-rule allow" [ "D1"; "D3" ]
    (Lint_core.allowed_rules_of_line "(* lint: allow D1, D3 — reason *)");
  Alcotest.(check (list string))
    "no marker" []
    (Lint_core.allowed_rules_of_line "let x = 1")

let test_alias_allow () =
  (* T1 supersedes D3, so an existing [allow D3] waives T1 too. *)
  let allows = Hashtbl.create 4 in
  Hashtbl.replace allows 7 [ "D3" ];
  let t1 =
    Lint_core.mk ~file:"lib/cup/x.ml" ~line:7 ~col:0 ~rule:"T1" ~message:"m"
  in
  Alcotest.(check bool) "allow D3 waives T1" true (Lint_core.is_allowed allows t1);
  Alcotest.(check bool)
    "allow D3 does not waive R1" false
    (Lint_core.is_allowed allows { t1 with rule = "R1" })

let test_report_line () =
  let f =
    Lint_core.mk ~file:"lib/cup/x.ml" ~line:9 ~col:2 ~rule:"D1" ~message:"m"
  in
  Alcotest.(check string)
    "grep-friendly line" "lib/cup/x.ml:9:2 [D1] m" (Lint_core.to_string f);
  Alcotest.(check string)
    "chain rendered" "lib/cup/x.ml:9:2 [P1] m (chain: a -> b)"
    (Lint_core.to_string { f with rule = "P1"; chain = [ "a"; "b" ] });
  Alcotest.(check string)
    "baseline key carries the line" "lib/cup/x.ml:9 [D1]"
    (Lint_core.baseline_key f)

let test_baseline_regates () =
  (* The point of the line-keyed format: a baselined finding stops
     matching — and gates again — as soon as its site moves. *)
  let f =
    Lint_core.mk ~file:"lib/cup/x.ml" ~line:9 ~col:2 ~rule:"D1" ~message:"m"
  in
  let baseline = [ Lint_core.baseline_key f ] in
  Alcotest.(check bool)
    "unmoved finding stays baselined" true
    (List.mem (Lint_core.baseline_key f) baseline);
  Alcotest.(check bool)
    "moved finding gates again" false
    (List.mem (Lint_core.baseline_key { f with line = 10 }) baseline);
  (* --baseline-update regenerates exactly these keys, sorted. *)
  let g = { f with file = "lib/cup/a.ml"; rule = "T1" } in
  let rendered = Lint_core.render_baseline [ f; g ] in
  let body =
    String.split_on_char '\n' rendered
    |> List.filter (fun l -> String.length l > 0 && l.[0] <> '#')
  in
  Alcotest.(check (list string))
    "render_baseline emits sorted keys"
    [ "lib/cup/a.ml:9 [T1]"; "lib/cup/x.ml:9 [D1]" ]
    body

let suites =
  [
    ( "lint",
      [
        Alcotest.test_case "D1 fires and passes ordering steps" `Quick test_d1;
        Alcotest.test_case "D1 per-site allow" `Quick test_d1_allow;
        Alcotest.test_case "D2 entropy, bench/ scoped" `Quick test_d2;
        Alcotest.test_case "D3 polymorphic comparison" `Quick test_d3;
        Alcotest.test_case "D4 Marshal/Obj, Pool scoped" `Quick test_d4;
        Alcotest.test_case "D5 float formats in lib/obs" `Quick test_d5;
        Alcotest.test_case "D6 parallelism primitives, lib/sim scoped" `Quick
          test_d6;
        Alcotest.test_case "M1 missing mli" `Quick test_m1;
        Alcotest.test_case "allow-comment parsing" `Quick test_allow_parsing;
        Alcotest.test_case "allow D3 also waives T1" `Quick test_alias_allow;
        Alcotest.test_case "report and baseline formats" `Quick
          test_report_line;
        Alcotest.test_case "line-keyed baseline re-gates on move" `Quick
          test_baseline_regates;
      ] );
  ]
