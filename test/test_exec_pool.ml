(* The persistent domain pool behind Simkit.Exec (DESIGN.md §18):
   lifecycle (lazy spawn, reuse across batches, idempotent shutdown,
   respawn), coexistence with detached daemon tasks, the STELLAR_CUP_JOBS
   environment default, and the Exec.map contract and experiment-table
   byte identity on a restarted and then warm pool.

   Worker counts are capped by the machine (one core spawns no domain
   workers at all), so nothing here asserts absolute pool sizes — only
   relations the facade guarantees everywhere: batches grow with every
   parallel map (inline ones included), size never exceeds peak, and
   shutdown leaves the pool empty but usable. *)

module Exec = Simkit.Exec

let int_list = Alcotest.(list int)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* ---- facade lifecycle ------------------------------------------------- *)

let test_batches_grow_and_results_stable () =
  let xs = List.init 64 Fun.id in
  let f x = (x * 7) - 3 in
  let expected = List.map f xs in
  let b0 = Exec.Pool.batches () in
  Alcotest.check int_list "first map" expected (Exec.map ~jobs:4 f xs);
  let b1 = Exec.Pool.batches () in
  Alcotest.(check bool) "a batch was counted" true (b1 > b0);
  Alcotest.check int_list "warm map" expected (Exec.map ~jobs:4 f xs);
  Alcotest.(check bool) "another batch" true (Exec.Pool.batches () > b1);
  Alcotest.(check bool) "size never exceeds peak" true
    (Exec.Pool.size () <= Exec.Pool.peak ())

let test_shutdown_idempotent_and_respawn () =
  let xs = List.init 32 Fun.id in
  let f x = x * x in
  let expected = List.map f xs in
  Alcotest.check int_list "warm the pool" expected (Exec.map ~jobs:4 f xs);
  Exec.Pool.shutdown ();
  Exec.Pool.shutdown ();
  Alcotest.(check int) "no workers after shutdown" 0 (Exec.Pool.size ());
  let b = Exec.Pool.batches () in
  Alcotest.check int_list "map after shutdown respawns" expected
    (Exec.map ~jobs:4 f xs);
  Alcotest.(check bool) "respawned batch counted" true
    (Exec.Pool.batches () > b)

let test_min_index_failure_on_warm_pool () =
  let xs = List.init 16 Fun.id in
  (* warm first, then fail mid-batch: the minimum-index failure wins
     and the pool answers the next map as if nothing happened *)
  ignore (Exec.map ~jobs:4 (fun x -> x + 1) xs);
  (try
     ignore
       (Exec.map ~chunk:1 ~jobs:4
          (fun x ->
            if x = 3 || x = 11 then failwith (Printf.sprintf "boom %d" x);
            x)
          xs);
     Alcotest.fail "expected Job_failed"
   with Exec.Job_failed msg ->
     Alcotest.(check bool) "minimum index reported" true
       (contains ~affix:"boom 3" msg));
  Alcotest.check int_list "pool still serves after a failure"
    (List.map (fun x -> x - 1) xs)
    (Exec.map ~jobs:4 (fun x -> x - 1) xs)

(* ---- detached tasks ---------------------------------------------------- *)

let test_pool_after_spawn_task () =
  (* A daemon client handler runs on its own domain and may itself
     submit parallel maps; afterwards the caller's pool must still
     serve. *)
  let xs = List.init 24 Fun.id in
  let f x = (x * 5) + 1 in
  let expected = List.map f xs in
  let inside = ref [] in
  let t = Exec.spawn_task (fun () -> inside := Exec.map ~jobs:2 f xs) in
  Exec.join_task t;
  Alcotest.check int_list "map inside the task" expected !inside;
  let b = Exec.Pool.batches () in
  Alcotest.check int_list "caller-side map after the task" expected
    (Exec.map ~jobs:2 f xs);
  Alcotest.(check bool) "the caller's batch was counted" true
    (Exec.Pool.batches () > b)

(* ---- the environment default ------------------------------------------- *)

let test_jobs_from_env () =
  let var = Exec.jobs_env_var in
  let old = Sys.getenv_opt var in
  let set v = Unix.putenv var v in
  Fun.protect
    ~finally:(fun () -> set (Option.value ~default:"" old))
    (fun () ->
      Alcotest.(check string) "the documented name" "STELLAR_CUP_JOBS" var;
      set "4";
      Alcotest.(check (option int)) "positive int" (Some 4)
        (Exec.jobs_from_env ());
      set " 8 ";
      Alcotest.(check (option int)) "trimmed" (Some 8) (Exec.jobs_from_env ());
      set "";
      Alcotest.(check (option int)) "empty is unset" None
        (Exec.jobs_from_env ());
      set "0";
      Alcotest.(check (option int)) "zero is malformed" None
        (Exec.jobs_from_env ());
      set "-3";
      Alcotest.(check (option int)) "negative is malformed" None
        (Exec.jobs_from_env ());
      set "many";
      Alcotest.(check (option int)) "garbage is malformed" None
        (Exec.jobs_from_env ()))

(* ---- the map contract across pool restarts ----------------------------- *)

(* Runs an Exec.map contract check on a freshly restarted pool, makes
   sure that pool still serves a parallel batch afterwards, then runs
   the check again on the now-warm pool. *)
let on_restarted_and_warm_pool check () =
  Exec.Pool.shutdown ();
  check ();
  let b = Exec.Pool.batches () in
  Alcotest.check int_list "pool serves after the check" [ 2; 3; 4 ]
    (Exec.map ~jobs:2 succ [ 1; 2; 3 ]);
  Alcotest.(check bool) "batch counted" true (Exec.Pool.batches () > b);
  check ()

let pool_experiment_case (name, build) =
  Alcotest.test_case
    (name ^ ": jobs=4 byte-identical")
    `Slow
    (on_restarted_and_warm_pool
       (Test_exec.experiment_determinism ~jobs_list:[ 4 ] name build))

let suites =
  [
    ( "pool",
      [
        Alcotest.test_case "empty and singleton inputs" `Quick
          (on_restarted_and_warm_pool Test_exec.test_empty_and_singleton);
        Alcotest.test_case "degenerate and oversubscribed jobs" `Quick
          (on_restarted_and_warm_pool Test_exec.test_jobs_degenerate);
        Alcotest.test_case "order preserved with jobs > items" `Quick
          (on_restarted_and_warm_pool
             Test_exec.test_order_preserved_more_jobs_than_items);
        Alcotest.test_case "worker crash raises Job_failed" `Quick
          (on_restarted_and_warm_pool Test_exec.test_crash_propagates);
      ] );
    ( "pool-experiments",
      List.map pool_experiment_case Test_exec.experiment_builds );
    ( "exec-pool",
      [
        Alcotest.test_case "batches grow, results stable" `Quick
          test_batches_grow_and_results_stable;
        Alcotest.test_case "shutdown idempotent, respawn works" `Quick
          test_shutdown_idempotent_and_respawn;
        Alcotest.test_case "min-index failure on a warm pool" `Quick
          test_min_index_failure_on_warm_pool;
        Alcotest.test_case "pool serves after a spawn_task" `Quick
          test_pool_after_spawn_task;
        Alcotest.test_case "STELLAR_CUP_JOBS parsing" `Quick test_jobs_from_env;
      ] );
  ]
