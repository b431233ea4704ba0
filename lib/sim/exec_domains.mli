(** Domain-pool backend for {!Exec}.

    The pool is {e persistent}: domains are spawned once per process
    (lazily, on the first batch that wants them, capped at
    [Domain.recommended_domain_count () - 1] helpers) and parked on a
    condition variable between batches. *)

val locked : (unit -> 'a) -> 'a
(** Runs the thunk inside the backend's global lock — the critical
    section {!Exec} arms {!Core.Cache} with. *)

val map_chunked :
  chunk:int -> domains:int -> (int -> unit) -> int -> (int * string) list
(** [map_chunked ~chunk ~domains do_job n] runs [do_job i] for every
    [i] in [0..n-1] across up to [domains] workers (the caller counts
    as one; the rest come from the parked pool, spawned on first use),
    handing out chunks of [chunk] consecutive indices from a
    mutex-protected counter. Returns the failures as
    [(job index, exception text)] pairs, in no particular order; a
    failure abandons the rest of its chunk only. Blocks until every
    participating worker has drained back to the pool — workers are
    parked, not joined, between calls. Concurrent submissions are
    serialized, each batch running with its own chunk counter. *)

val shutdown : unit -> unit
(** Joins and discards every parked domain. Idempotent; a later batch
    lazily respawns a fresh pool. Also registered [at_exit] on first
    spawn, so a process never hangs on parked domains. *)

val pool_size : unit -> int
(** Currently parked worker domains (excludes submitters). *)

val pool_peak : unit -> int
(** High-water mark of {!pool_size} over the process lifetime. *)

val pool_batches : unit -> int
(** Batches executed by this backend (including 1-worker inline
    batches on machines where the domain cap clamps to the caller). *)

type task
(** A detached unit of work on its own domain — the daemon's
    per-client handlers. Not a pool seat: tasks are IO-bound and
    uncapped. *)

val detach : (unit -> unit) -> task
(** Starts [f] on a fresh domain. *)

val join_task : task -> unit
(** Blocks until the task's thunk has returned. *)
