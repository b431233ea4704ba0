open Graphkit
open Fbqs

let set = Pid.Set.of_list
let pid_set = Alcotest.testable Pid.Set.pp Pid.Set.equal
let pid_sets = Alcotest.(list pid_set)

(* Canonical order shared with Enum: ascending cardinality, then set
   compare — lets us diff whole set families against brute force. *)
let canonical sets =
  List.sort_uniq
    (fun a b ->
      match Int.compare (Pid.Set.cardinal a) (Pid.Set.cardinal b) with
      | 0 -> Pid.Set.compare a b
      | c -> c)
    sets

let subsets universe =
  let elts = Array.of_list (Pid.Set.elements universe) in
  let n = Array.length elts in
  List.init (1 lsl n) (fun mask ->
      let s = ref Pid.Set.empty in
      for b = 0 to n - 1 do
        if mask land (1 lsl b) <> 0 then s := Pid.Set.add elts.(b) !s
      done;
      !s)

let sets_equal a b =
  List.length a = List.length b && List.for_all2 Pid.Set.equal a b

let minimal_of sets =
  List.filter
    (fun s ->
      not
        (List.exists
           (fun s' -> (not (Pid.Set.equal s s')) && Pid.Set.subset s' s)
           sets))
    sets

(* Classic 4-node 3f+1 system. *)
let pbft4 =
  let members = Pid.Set.of_range 1 4 in
  Quorum.system_of_list
    (List.map
       (fun i -> (i, Slice.threshold ~members ~threshold:3))
       (Pid.Set.elements members))

(* Two self-sufficient cliques: the canonical intersection
   counterexample (two disjoint quorums from the start). *)
let cliques =
  Quorum.system_of_list
    [
      (1, Slice.explicit [ set [ 1; 2 ] ]);
      (2, Slice.explicit [ set [ 1; 2 ] ]);
      (3, Slice.explicit [ set [ 3; 4 ] ]);
      (4, Slice.explicit [ set [ 3; 4 ] ]);
    ]

let test_pbft4 () =
  let t = Enum.prepare pbft4 in
  Alcotest.check pid_sets "minimal quorums = 3-subsets"
    (canonical
       (List.filter (fun s -> Pid.Set.cardinal s = 3)
          (subsets (Pid.Set.of_range 1 4))))
    (Enum.minimal_quorums t);
  Alcotest.check pid_set "top tier" (Pid.Set.of_range 1 4) (Enum.top_tier t);
  (match Enum.check_intersection t with
  | Enum.Intersects -> ()
  | Enum.Disjoint _ -> Alcotest.fail "pbft4 quorums intersect");
  let b = Enum.minimal_blocking_sets t in
  Alcotest.(check bool) "blocking complete" true b.Enum.complete;
  Alcotest.check pid_sets "blocking = 2-subsets"
    (canonical
       (List.filter (fun s -> Pid.Set.cardinal s = 2)
          (subsets (Pid.Set.of_range 1 4))))
    b.Enum.sets;
  Alcotest.check pid_sets "splitting = 2-subsets"
    (canonical
       (List.filter (fun s -> Pid.Set.cardinal s = 2)
          (subsets (Pid.Set.of_range 1 4))))
    (Enum.minimal_splitting_sets t)

let test_disjoint_cliques () =
  let t = Enum.prepare cliques in
  (match Enum.check_intersection t with
  | Enum.Intersects -> Alcotest.fail "cliques have disjoint quorums"
  | Enum.Disjoint (q1, q2) ->
      Alcotest.(check bool) "witness disjoint" true
        (Pid.Set.is_empty (Pid.Set.inter q1 q2));
      Alcotest.(check bool) "both are quorums" true
        (Quorum.is_quorum cliques q1 && Quorum.is_quorum cliques q2));
  Alcotest.(check bool) "deleting one clique restores intersection" true
    (Enum.quorum_intersection_despite cliques (set [ 3; 4 ]));
  Alcotest.check pid_sets "empty set splits"
    [ Pid.Set.empty ]
    (Enum.minimal_splitting_sets t)

let test_fig2_algorithm2 () =
  (* The paper's Fig. 2 running example with Algorithm 2 slices. *)
  let sys = Cup.Slice_builder.system_via_oracle ~f:1 Builtin.fig2 in
  let t = Enum.prepare sys in
  Alcotest.check pid_sets "minimal quorums match Gosper"
    (canonical (Quorum.minimal_quorums sys))
    (Enum.minimal_quorums t);
  (match Enum.check_intersection t with
  | Enum.Intersects -> ()
  | Enum.Disjoint _ -> Alcotest.fail "fig2 quorums intersect");
  Alcotest.check pid_set "top tier matches baseline"
    (Analysis.top_tier_baseline sys)
    (Enum.top_tier t)

let test_stats_move () =
  let t = Enum.prepare pbft4 in
  ignore (Enum.minimal_quorums t);
  let s = Enum.stats t in
  Alcotest.(check bool) "explored > 0" true (s.Enum.explored > 0);
  Alcotest.(check int) "found = minimal quorum count" 4 s.Enum.found

let test_nonminimal_candidate_first () =
  (* One trust SCC {1,2,3}. The ascending-pid walk includes 1, 2, 3
     and stops at the quorum {1,2,3} before its exclude-2 branch
     reaches the minimal quorum {1,3}: the non-minimal candidate comes
     first and must be dropped. *)
  let sys =
    Quorum.system_of_list
      [
        (1, Slice.explicit [ set [ 1; 3 ]; set [ 1; 2 ] ]);
        (2, Slice.explicit [ set [ 1; 2; 3 ] ]);
        (3, Slice.explicit [ set [ 1; 3 ] ]);
      ]
  in
  let reference = canonical (Quorum.minimal_quorums sys) in
  Alcotest.check pid_sets "reference" [ set [ 1; 3 ] ] reference;
  List.iter
    (fun jobs ->
      let t = Enum.prepare sys in
      Alcotest.check pid_sets
        (Printf.sprintf "jobs=%d: minimal quorums = Gosper" jobs)
        reference
        (Enum.minimal_quorums ~jobs t);
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: stats.found" jobs)
        (List.length reference) (Enum.stats t).Enum.found)
    [ 1; 4 ]

(* ---- fixture provenance ------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_fixture_provenance () =
  (* The committed live-network fixture is exactly what the generator
     produces at the default seed — regenerating must be a no-op on
     every OCaml version (the generator uses its own LCG, not
     [Random]). *)
  let generated = Fbas_io.to_string (Topology.stellarbeat_like ()) in
  Alcotest.(check string)
    "fixtures/live_network.fbas = stellarbeat_like ()"
    (read_file "fixtures/live_network.fbas")
    generated

let test_fixture_analysis () =
  (* Smoke the committed fixture at full scale: the CI analyzer gate
     depends on these shapes staying put. *)
  match Fbas_io.of_file "fixtures/live_network.fbas" with
  | Error e -> Alcotest.fail e
  | Ok sys ->
      let t = Enum.prepare sys in
      Alcotest.(check int) "participants" 210
        (Pid.Set.cardinal (Quorum.participants sys));
      Alcotest.(check int) "minimal quorums" 519
        (List.length (Enum.minimal_quorums t));
      Alcotest.check pid_set "top tier = the 21 top validators"
        (Pid.Set.of_range 0 20) (Enum.top_tier t);
      (match Enum.check_intersection t with
      | Enum.Intersects -> ()
      | Enum.Disjoint _ -> Alcotest.fail "fixture enjoys intersection")

(* ---- random systems ---------------------------------------------------- *)

(* Deterministic explicit-slice system from an int seed: n nodes, each
   with 1-3 slices over arbitrary subsets. Same LCG trick as
   [Topology] — the qcheck cases must replay identically under both
   OCaml 4.x and 5.x. *)
let random_system seed n =
  let state = ref (((seed * 2862933555777941757) + 3037000493) land max_int) in
  let next bound =
    state :=
      ((!state * 2685821657736338717) + 1442695040888963407) land max_int;
    (!state lsr 17) mod bound
  in
  Quorum.system_of_list
    (List.init n (fun i ->
         let i = i + 1 in
         let n_slices = 1 + next 3 in
         let slice () =
           let s =
             List.filter (fun _ -> next 2 = 0)
               (List.init n (fun j -> j + 1))
           in
           Pid.Set.of_list (if s = [] then [ i ] else s)
         in
         (i, Slice.explicit (List.init n_slices (fun _ -> slice ())))))

let sys_arb =
  QCheck.(
    map
      (fun (seed, n) -> (seed, n, random_system seed n))
      (pair (int_range 0 100000) (int_range 1 7)))
  |> QCheck.set_print (fun (seed, n, _) -> Printf.sprintf "seed=%d n=%d" seed n)

let prop_minimal_quorums_equiv =
  QCheck.Test.make ~count:200 ~name:"B&B minimal quorums = Gosper"
    sys_arb
    (fun (_, _, sys) ->
      sets_equal
        (Enum.minimal_quorums (Enum.prepare sys))
        (canonical (Quorum.minimal_quorums sys)))

let prop_intersection_equiv =
  QCheck.Test.make ~count:200 ~name:"intersection = baseline despite {}"
    sys_arb
    (fun (_, _, sys) ->
      let bb =
        match Enum.quorum_intersection sys with
        | Enum.Intersects -> true
        | Enum.Disjoint _ -> false
      in
      bb = Dset.quorum_intersection_despite_baseline sys Pid.Set.empty)

(* The Disjoint witness rule, restated on the Pid.Set primitives.
   Quorum SCCs: the SCCs of the trust graph (edges from
   [Slice.domain]) restricted to the greatest quorum, each shrunk to
   its greatest quorum, in [Scc.components] order. A prepared analyzer
   with nothing cached answers from two or more of them at once;
   otherwise — and always once minimal quorums are cached — the witness
   is the first minimal quorum in canonical order whose complement
   holds a quorum, paired with the greatest quorum of that
   complement. *)
let reference_quorum_sccs sys =
  let w = Quorum.greatest_quorum_within sys (Quorum.participants sys) in
  let g =
    Pid.Set.fold
      (fun i g ->
        Pid.Set.fold
          (fun j g -> if Pid.Set.mem j w then Digraph.add_edge i j g else g)
          (Slice.domain (Quorum.slices_of sys i))
          (Digraph.add_vertex i g))
      w Digraph.empty
  in
  List.filter_map
    (fun scc ->
      let gq = Quorum.greatest_quorum_within sys scc in
      if Pid.Set.is_empty gq then None else Some gq)
    (Scc.components g)

let reference_cached sys =
  let parts = Quorum.participants sys in
  match
    List.find_map
      (fun q ->
        let partner =
          Quorum.greatest_quorum_within sys (Pid.Set.diff parts q)
        in
        if Pid.Set.is_empty partner then None else Some (q, partner))
      (canonical (Quorum.minimal_quorums sys))
  with
  | Some (q, q') -> Enum.Disjoint (q, q')
  | None -> Enum.Intersects

let reference_uncached sys =
  match reference_quorum_sccs sys with
  | s1 :: s2 :: _ -> Enum.Disjoint (s1, s2)
  | _ -> reference_cached sys

let intersection_equal a b =
  match (a, b) with
  | Enum.Intersects, Enum.Intersects -> true
  | Enum.Disjoint (a1, a2), Enum.Disjoint (b1, b2) ->
      Pid.Set.equal a1 b1 && Pid.Set.equal a2 b2
  | _ -> false

(* Two random parts glued into one system: every node of the first
   ({1..a}) and of the second ({a+1..a+b}) also gets its whole part as
   a slice, so each part is a quorum-bearing SCC; nodes of the first
   trust into the second through one extra mixed slice. With [back],
   one node of the second trusts back into the first as well, merging
   the parts into a single SCC that holds disjoint quorums. Two leaves,
   trusted by nobody, lean on one node of each part: they sit in no
   quorum SCC but do join the greatest quorum of a complement. *)
let two_part_system seed a b back =
  let first = Pid.Set.of_range 1 a in
  let second = Pid.Set.of_range (a + 1) (a + b) in
  let explicit sys i =
    match Quorum.slices_of sys i with
    | Slice.Explicit slices -> slices
    | Slice.Threshold _ -> []
  in
  let lower = random_system seed a and upper = random_system (seed + 1) b in
  let node i =
    if i <= a then
      let cross = Pid.Set.of_list [ i; a + 1 + ((seed + i) mod b) ] in
      (i, Slice.explicit (explicit lower i @ [ first; cross ]))
    else
      let own =
        List.map (Pid.Set.map (fun j -> j + a)) (explicit upper (i - a))
      in
      let back =
        if back && i = a + b then [ Pid.Set.of_list [ 1; i ] ] else []
      in
      (i, Slice.explicit (own @ (second :: back)))
  in
  let leaf l anchor = (l, Slice.explicit [ Pid.Set.of_list [ anchor; l ] ]) in
  Quorum.system_of_list
    (List.init (a + b) (fun i -> node (i + 1))
    @ [ leaf (a + b + 1) 1; leaf (a + b + 2) (a + 1) ])

let two_part_arb =
  QCheck.(
    map
      (fun (seed, (a, b), back) ->
        (seed, a, b, back, two_part_system seed a b back))
      (triple (int_range 0 100000) (pair (int_range 1 4) (int_range 1 4)) bool))
  |> QCheck.set_print (fun (seed, a, b, back, _) ->
         Printf.sprintf "seed=%d a=%d b=%d back=%b" seed a b back)

let witness_pinned sys =
  let cached = Enum.prepare sys in
  ignore (Enum.minimal_quorums cached);
  intersection_equal (Enum.check_intersection cached) (reference_cached sys)
  && intersection_equal
       (Enum.check_intersection (Enum.prepare sys))
       (reference_uncached sys)

let prop_witness_random =
  QCheck.Test.make ~count:300 ~name:"Disjoint witness = reference, random"
    sys_arb (fun (_, _, sys) -> witness_pinned sys)

let prop_witness_two_parts =
  QCheck.Test.make ~count:200
    ~name:"Disjoint witness = reference, two quorum SCCs" two_part_arb
    (fun (_, _, _, back, sys) ->
      (* Without [back] the parts must stay two quorum SCCs, so the
         short-circuit and the cross-SCC complement test both run. *)
      (back || List.length (reference_quorum_sccs sys) >= 2)
      && witness_pinned sys)

let prop_despite_equiv =
  QCheck.Test.make ~count:200 ~name:"intersection despite = baseline"
    QCheck.(pair sys_arb (int_range 0 127))
    (fun ((_, n, sys), bmask) ->
      let b =
        Pid.Set.filter
          (fun i -> bmask land (1 lsl (i - 1)) <> 0)
          (Pid.Set.of_range 1 n)
      in
      Enum.quorum_intersection_despite sys b
      = Dset.quorum_intersection_despite_baseline sys b)

let prop_blocking_equiv =
  (* Brute force: a set blocks iff its complement contains no quorum;
     minimal blocking sets are the inclusion-minimal such sets. *)
  QCheck.Test.make ~count:200 ~name:"B&B blocking sets = brute force"
    sys_arb
    (fun (_, _, sys) ->
      let parts = Quorum.participants sys in
      let brute =
        canonical
          (minimal_of
             (List.filter
                (fun b ->
                  (not (Pid.Set.is_empty b))
                  && not (Quorum.contains_quorum sys (Pid.Set.diff parts b)))
                (subsets parts)))
      in
      let r = Enum.minimal_blocking_sets (Enum.prepare sys) in
      r.Enum.complete && sets_equal r.Enum.sets brute)

let prop_splitting_equiv =
  QCheck.Test.make ~count:100 ~name:"splitting sets = baseline"
    sys_arb
    (fun (_, _, sys) ->
      sets_equal
        (canonical (Analysis.splitting_sets_baseline sys))
        (Enum.minimal_splitting_sets
           ~universe:(Quorum.participants sys)
           (Enum.prepare sys)))

let prop_fbas_io_roundtrip =
  QCheck.Test.make ~count:200 ~name:"fbas_io print/parse roundtrip"
    sys_arb
    (fun (_, _, sys) ->
      match Fbas_io.of_string (Fbas_io.to_string sys) with
      | Error _ -> false
      | Ok sys' ->
          Pid.Map.equal
            (fun a b ->
              match (a, b) with
              | Slice.Explicit xs, Slice.Explicit ys ->
                  List.length xs = List.length ys
                  && List.for_all2 Pid.Set.equal xs ys
              | ( Slice.Threshold { members = m1; threshold = t1 },
                  Slice.Threshold { members = m2; threshold = t2 } ) ->
                  Pid.Set.equal m1 m2 && t1 = t2
              | _ -> false)
            sys sys')

let prop_fbas_io_threshold_roundtrip =
  QCheck.Test.make ~count:100 ~name:"fbas_io threshold roundtrip"
    QCheck.(pair (int_range 1 8) (int_range 0 8))
    (fun (n, t) ->
      let members = Pid.Set.of_range 1 n in
      let sys =
        Quorum.system_of_list
          (List.map
             (fun i -> (i, Slice.threshold ~members ~threshold:(min t n)))
             (Pid.Set.elements members))
      in
      match Fbas_io.of_string (Fbas_io.to_string sys) with
      | Error _ -> false
      | Ok sys' ->
          Pid.Set.equal (Quorum.participants sys) (Quorum.participants sys')
          && sets_equal (Quorum.minimal_quorums sys)
               (Quorum.minimal_quorums sys'))

let suites =
  [
    ( "enum",
      [
        Alcotest.test_case "pbft4 families" `Quick test_pbft4;
        Alcotest.test_case "disjoint cliques" `Quick test_disjoint_cliques;
        Alcotest.test_case "fig2 with Algorithm 2 slices" `Quick
          test_fig2_algorithm2;
        Alcotest.test_case "search stats" `Quick test_stats_move;
        Alcotest.test_case "non-minimal candidate reached first" `Quick
          test_nonminimal_candidate_first;
        Alcotest.test_case "fixture provenance" `Quick
          test_fixture_provenance;
        Alcotest.test_case "fixture full-scale analysis" `Quick
          test_fixture_analysis;
        QCheck_alcotest.to_alcotest prop_minimal_quorums_equiv;
        QCheck_alcotest.to_alcotest prop_intersection_equiv;
        QCheck_alcotest.to_alcotest prop_witness_random;
        QCheck_alcotest.to_alcotest prop_witness_two_parts;
        QCheck_alcotest.to_alcotest prop_despite_equiv;
        QCheck_alcotest.to_alcotest prop_blocking_equiv;
        QCheck_alcotest.to_alcotest prop_splitting_equiv;
        QCheck_alcotest.to_alcotest prop_fbas_io_roundtrip;
        QCheck_alcotest.to_alcotest prop_fbas_io_threshold_roundtrip;
      ] );
  ]
