exception Job_failed of string

(* Shared mutable state reachable from jobs (the Core.Cache handle
   memos and the lazy analysis fields inside compiled handles) is
   written with idempotent, input-determined values, so racing on it
   is output-deterministic; but the cache's entry-list/length pair
   should still move atomically. The executor arms Core.Cache's
   critical-section hook with the pool's lock the first time it
   engages. The actual Mutex lives in exec_domains.ml, so no protocol
   or analysis code ever touches locking directly. *)
let arm_cache_protector =
  lazy
    (Core.Cache.set_protector { Core.Cache.protect = Exec_domains.locked })

(* Chunks amortize dispatch overhead for many tiny jobs but cost load
   balance for few heavy ones; experiment sweeps are firmly in the
   second camp (tens of multi-millisecond simulations), so the default
   only rises above 1 once there are dozens of jobs per worker. *)
let default_chunk ~jobs n = max 1 (min 1024 (n / (jobs * 32)))

let map ?chunk ~jobs f xs =
  let n = List.length xs in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    Lazy.force arm_cache_protector;
    let chunk =
      match chunk with Some c -> max 1 c | None -> default_chunk ~jobs n
    in
    let input = Array.of_list xs in
    let slots = Array.make n None in
    (* Each job writes its own slot: disjoint indices, no serialization,
       results stay on the shared heap. *)
    let do_job i = slots.(i) <- Some (f input.(i)) in
    let failures =
      Exec_domains.map_chunked ~chunk ~domains:(min jobs n) do_job n
    in
    match List.sort (fun (i, _) (j, _) -> Int.compare i j) failures with
    | (_, msg) :: _ -> raise (Job_failed msg)
    | [] ->
        Array.to_list
          (Array.map
             (function
               | Some y -> y | None -> raise (Job_failed "missing result"))
             slots)
  end

let jobs_env_var = "STELLAR_CUP_JOBS"

let jobs_from_env () =
  match Sys.getenv_opt jobs_env_var with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> Some j
      | _ -> None)

let protect f =
  Lazy.force arm_cache_protector;
  Exec_domains.locked f

type task = Exec_domains.task

let spawn_task f =
  (* Detached tasks (daemon client handlers) race on the shared
     Core.Cache handles exactly like pool workers do: arm the
     protector before the first one starts. *)
  Lazy.force arm_cache_protector;
  Exec_domains.detach f

let join_task = Exec_domains.join_task

module Pool = struct
  let shutdown = Exec_domains.shutdown
  let size = Exec_domains.pool_size
  let peak = Exec_domains.pool_peak
  let batches = Exec_domains.pool_batches
end
