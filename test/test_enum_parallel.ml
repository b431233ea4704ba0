(* Frontier-sharded Enum searches (DESIGN.md §18) must be invisible in
   everything but wall-clock: every entry point, the search stats, the
   per-analysis metrics registry and the full Api payload are compared
   byte-for-byte between jobs=1 and jobs>1. The random systems replay
   the LCG generator of test_enum so cases are identical on 4.x and
   5.x; the stellarbeat-shaped case is deep enough (top tier above the
   frontier depth) that the jobs>1 run genuinely creates shards. *)

open Graphkit
open Fbqs

let set = Pid.Set.of_list
let pid_set = Alcotest.testable Pid.Set.pp Pid.Set.equal
let pid_sets = Alcotest.(list pid_set)

let sets_equal a b =
  List.length a = List.length b && List.for_all2 Pid.Set.equal a b

let intersection_equal a b =
  match (a, b) with
  | Enum.Intersects, Enum.Intersects -> true
  | Enum.Disjoint (a1, a2), Enum.Disjoint (b1, b2) ->
      Pid.Set.equal a1 b1 && Pid.Set.equal a2 b2
  | _ -> false

let stats_equal (a : Enum.stats) (b : Enum.stats) =
  a.explored = b.explored && a.pruned = b.pruned && a.found = b.found

(* Same deterministic generator as test_enum. *)
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
      (pair (int_range 0 100000) (int_range 1 8)))
  |> QCheck.set_print (fun (seed, n, _) -> Printf.sprintf "seed=%d n=%d" seed n)

(* ---- qcheck parity, every entry point ---------------------------------- *)

let prop_minimal_quorums_parity =
  QCheck.Test.make ~count:150 ~name:"minimal_quorums: jobs=4 = jobs=1" sys_arb
    (fun (_, _, sys) ->
      let t1 = Enum.prepare sys and t4 = Enum.prepare sys in
      let q1 = Enum.minimal_quorums ~jobs:1 t1 in
      let q4 = Enum.minimal_quorums ~jobs:4 t4 in
      sets_equal q1 q4
      && stats_equal (Enum.stats t1) (Enum.stats t4)
      && Pid.Set.equal (Enum.top_tier t1) (Enum.top_tier t4))

let prop_intersection_parity =
  QCheck.Test.make ~count:150 ~name:"check_intersection: jobs=4 = jobs=1"
    sys_arb
    (fun (_, _, sys) ->
      intersection_equal
        (Enum.check_intersection ~jobs:1 (Enum.prepare sys))
        (Enum.check_intersection ~jobs:4 (Enum.prepare sys)))

let prop_blocking_parity =
  QCheck.Test.make ~count:150 ~name:"minimal_blocking_sets: jobs=4 = jobs=1"
    sys_arb
    (fun (_, _, sys) ->
      let t1 = Enum.prepare sys and t4 = Enum.prepare sys in
      let b1 = Enum.minimal_blocking_sets ~jobs:1 t1 in
      let b4 = Enum.minimal_blocking_sets ~jobs:4 t4 in
      sets_equal b1.Enum.sets b4.Enum.sets
      && b1.Enum.complete = b4.Enum.complete
      && stats_equal (Enum.stats t1) (Enum.stats t4))

let prop_blocking_limit_parity =
  (* A finite limit pins the truncation to discovery order, so jobs
     must be ignored there — byte-equal including the [complete] flag. *)
  QCheck.Test.make ~count:100 ~name:"blocking ~limit: jobs=4 = jobs=1"
    QCheck.(pair sys_arb (int_range 0 4))
    (fun ((_, _, sys), limit) ->
      let t1 = Enum.prepare sys and t4 = Enum.prepare sys in
      let b1 = Enum.minimal_blocking_sets ~limit ~jobs:1 t1 in
      let b4 = Enum.minimal_blocking_sets ~limit ~jobs:4 t4 in
      sets_equal b1.Enum.sets b4.Enum.sets
      && b1.Enum.complete = b4.Enum.complete
      && stats_equal (Enum.stats t1) (Enum.stats t4))

let prop_splitting_parity =
  QCheck.Test.make ~count:80 ~name:"minimal_splitting_sets: jobs=4 = jobs=1"
    sys_arb
    (fun (_, _, sys) ->
      sets_equal
        (Enum.minimal_splitting_sets ~jobs:1 (Enum.prepare sys))
        (Enum.minimal_splitting_sets ~jobs:4 (Enum.prepare sys)))

(* ---- metrics replay ----------------------------------------------------- *)

let registry_string f =
  let metrics = Obs.Metrics.create () in
  f metrics;
  Obs.Json.to_string (Obs.Metrics.to_json metrics)

let prop_metrics_parity =
  (* The registry is only ever ticked by the caller (prefix walk plus
     ordered delta replay), so counters — not just results — must
     match at every jobs count. *)
  QCheck.Test.make ~count:80 ~name:"metrics registry: jobs=4 = jobs=1" sys_arb
    (fun (_, _, sys) ->
      let run jobs =
        registry_string (fun metrics ->
            let t = Enum.prepare ~metrics sys in
            ignore (Enum.minimal_quorums ~jobs t);
            ignore (Enum.check_intersection ~jobs t);
            ignore (Enum.minimal_splitting_sets ~metrics ~jobs t))
      in
      String.equal (run 1) (run 4))

(* ---- a genuinely sharded search ----------------------------------------- *)

let deep_system =
  (* Top tier 3 orgs x 3 validators = 9 > the frontier depth, so the
     jobs=4 search really cuts shards and merges them. *)
  Topology.stellarbeat_like ~orgs:3 ~validators_per_org:3 ~mid:4 ~leaves:5
    ~seed:11 ()

let test_deep_parity () =
  let t1 = Enum.prepare deep_system and t4 = Enum.prepare deep_system in
  let q1 = Enum.minimal_quorums ~jobs:1 t1 in
  let b0 = Simkit.Exec.Pool.batches () in
  let q4 = Enum.minimal_quorums ~jobs:4 t4 in
  Alcotest.(check bool) "sharded path engaged the pool" true
    (Simkit.Exec.Pool.batches () > b0);
  Alcotest.check pid_sets "quorums identical" q1 q4;
  Alcotest.(check int) "explored identical" (Enum.stats t1).Enum.explored
    (Enum.stats t4).Enum.explored;
  Alcotest.(check int) "pruned identical" (Enum.stats t1).Enum.pruned
    (Enum.stats t4).Enum.pruned;
  Alcotest.(check bool) "blocking identical" true
    (let b1 = Enum.minimal_blocking_sets ~jobs:1 t1 in
     let b4 = Enum.minimal_blocking_sets ~jobs:4 t4 in
     sets_equal b1.Enum.sets b4.Enum.sets
     && b1.Enum.complete = b4.Enum.complete)

(* ---- the live-network fixture ------------------------------------------- *)

let test_live_blocking_pinned () =
  (* 519 minimal quorums: the blocking search's quorum-index bitsets
     span nine words. Counts, stats and a digest of the sets were
     recorded with the list-based search this one replaced; stats are
     cumulative (the minimal-quorum search contributes 5549 explored
     and all the pruning). *)
  let sys =
    match Fbas_io.of_file "fixtures/live_network.fbas" with
    | Ok sys -> sys
    | Error e -> Alcotest.fail e
  in
  let digest sets =
    Digest.to_hex
      (Digest.string (String.concat ";" (List.map Pid.Set.to_string sets)))
  in
  List.iter
    (fun (jobs, limit, n_sets, complete, explored, hex) ->
      let name =
        Printf.sprintf "jobs=%d limit=%s" jobs
          (if limit = max_int then "none" else string_of_int limit)
      in
      let t = Enum.prepare sys in
      let b = Enum.minimal_blocking_sets ~limit ~jobs t in
      Alcotest.(check int) (name ^ ": sets") n_sets (List.length b.Enum.sets);
      Alcotest.(check bool) (name ^ ": complete") complete b.Enum.complete;
      Alcotest.(check string) (name ^ ": sets digest") hex (digest b.Enum.sets);
      let st = Enum.stats t in
      Alcotest.(check (list int))
        (name ^ ": explored/pruned/found")
        [ explored; 3812; 519 ]
        [ st.Enum.explored; st.Enum.pruned; st.Enum.found ])
    [
      (1, max_int, 2069, true, 10650, "0356bf0293ad41c1d42d235dfee4969f");
      (4, max_int, 2069, true, 10650, "0356bf0293ad41c1d42d235dfee4969f");
      (1, 100, 100, false, 5763, "5270ae6802f0f27721659dbca25fa0a5");
      (4, 100, 100, false, 5763, "5270ae6802f0f27721659dbca25fa0a5");
      (1, 2068, 2068, false, 10648, "70f646b7c7167dd1b5d7c5f35bc20bb2");
    ]

(* ---- the full service payload ------------------------------------------- *)

let test_api_payload_parity () =
  let payload jobs sys =
    let opts =
      {
        Serve.Api.default_analysis_options with
        despite = [ []; [ 1 ]; [ 2; 3 ] ];
        blocking = true;
        splitting = true;
        max_size = Some 3;
        metrics = true;
        jobs;
      }
    in
    Obs.Json.to_string
      (Serve.Api.analysis_payload opts (Serve.Api.analyze opts sys))
  in
  List.iter
    (fun (name, sys) ->
      Alcotest.(check string)
        (name ^ ": payload byte-identical at jobs=1/4")
        (payload 1 sys) (payload 4 sys);
      Alcotest.(check string)
        (name ^ ": payload byte-identical at jobs=1/7")
        (payload 1 sys) (payload 7 sys))
    [
      ("deep", deep_system);
      ("random-6", random_system 42 6);
      ( "disjoint",
        Quorum.system_of_list
          [
            (1, Slice.explicit [ set [ 1; 2 ] ]);
            (2, Slice.explicit [ set [ 1; 2 ] ]);
            (3, Slice.explicit [ set [ 3; 4 ] ]);
            (4, Slice.explicit [ set [ 3; 4 ] ]);
          ] );
    ]

let suites =
  [
    ( "enum-parallel",
      [
        QCheck_alcotest.to_alcotest prop_minimal_quorums_parity;
        QCheck_alcotest.to_alcotest prop_intersection_parity;
        QCheck_alcotest.to_alcotest prop_blocking_parity;
        QCheck_alcotest.to_alcotest prop_blocking_limit_parity;
        QCheck_alcotest.to_alcotest prop_splitting_parity;
        QCheck_alcotest.to_alcotest prop_metrics_parity;
        Alcotest.test_case "deep topology parity + sharding engaged" `Quick
          test_deep_parity;
        Alcotest.test_case "service payload parity" `Quick
          test_api_payload_parity;
        Alcotest.test_case "live fixture blocking sets and stats pinned"
          `Quick test_live_blocking_pinned;
      ] );
  ]
