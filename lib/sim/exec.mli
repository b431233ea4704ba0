(** The parallel map executor behind every [--jobs] flag.

    A {b domain pool}: [jobs] workers (the caller plus parked domains)
    pull chunks of job indices from a mutex-protected counter and
    write results straight into a preallocated slot array — shared
    heap, zero serialization. The domains themselves live in
    [exec_domains.ml].

    The contract, identical at every [jobs] count:
    [map ~jobs f xs = List.map f xs], byte for byte. Jobs must be
    independent pure-ish functions (each experiment sample builds its
    own engine, metrics registry and trace buffer); the executor adds
    parallelism as a pure wall-clock optimisation, never a semantic
    knob. Determinism of the error path: if jobs fail, the exception
    text of the {e minimum-index} failing job is the one re-raised
    (chunk claiming is monotonic, so that job was always attempted).

    Shared state: the {!Core.Cache} handle memos (compiled quorum
    systems, CSR graphs) are reachable from jobs. Their values are
    pure functions of their keys and their internal lazy fields are
    written idempotently, so races stay output-deterministic; the
    executor additionally arms {!Core.Cache.set_protector} with the
    pool's lock before the first domain spawn so the cache's
    bookkeeping moves atomically. Parallelism primitives stay behind
    this seam (enforced by stellar-lint rule D6). *)

exception Job_failed of string
(** A job raised (payload: exception text plus backtrace). Raised only
    after every worker has drained back to the pool. *)

val map : ?chunk:int -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] evaluates [f] on every element of [xs] with up to
    [jobs] workers and returns the results in input order —
    byte-identical to [List.map f xs].

    [jobs <= 1] and singleton/empty inputs run sequentially. [?chunk]
    overrides the dispatch chunk size (results are invariant under it;
    it only moves the throughput/balance trade-off). Inputs, [f] and
    results are never serialized.

    The workers stay alive between calls (see {!Pool}): the first
    parallel [map] pays the spawn cost, later ones only dispatch.

    @raise Job_failed if any job raises (minimum-index failure wins),
    after all workers are collected. *)

(** {1 The persistent worker pool} *)

(** Lifecycle and occupancy of the process-wide domain pool behind
    {!map}. *)
module Pool : sig
  val shutdown : unit -> unit
  (** Tears the live pool down (joins the parked domains). Idempotent;
      the next parallel {!map} respawns lazily. Registered [at_exit] on
      first spawn, so explicit calls are only needed to reclaim
      workers mid-process. *)

  val size : unit -> int
  (** Workers currently parked (the submitting caller is not one). *)

  val peak : unit -> int
  (** High-water mark of {!size} over the process lifetime. *)

  val batches : unit -> int
  (** Parallel map batches executed so far (including batches the
      1-core domain cap ran inline). *)
end

val jobs_env_var : string
(** ["STELLAR_CUP_JOBS"] — the environment default behind every
    [--jobs] flag (CLI, bench, daemon). An explicit flag always
    wins. *)

val jobs_from_env : unit -> int option
(** The parsed {!jobs_env_var} value: [Some j] for a positive integer,
    [None] when unset, empty or malformed. *)

(** {1 Detached tasks and shared-state protection} *)

val protect : (unit -> 'a) -> 'a
(** Runs the thunk inside the executor's global critical section (the
    same lock {!Core.Cache} is armed with). The only sanctioned
    mutual-exclusion seam outside [lib/sim] (stellar-lint D6): the
    daemon guards its connection counters with it. *)

type task
(** A detached unit of work — the daemon's per-client connection
    handlers. It runs on its own domain (not a pool seat: these are
    IO-bound). *)

val spawn_task : (unit -> unit) -> task
val join_task : task -> unit
