(** The federated voting core (Mazières 2015; Section III-D semantics).

    For each statement a node tracks who voted and who accepted it, and
    applies the two FBQS transition rules:

    - {b accept}: some quorum containing this node voted-or-accepted the
      statement, {e or} a v-blocking set accepted it (the v-blocking arm
      lets a node accept a statement it did not vote for);
    - {b confirm}: some quorum containing this node accepted it (the
      node "ratifies" the acceptance).

    Quorum membership is evaluated against a slice system: a set [S]
    holds a quorum containing the node iff the node belongs to the
    greatest quorum within [S ∪ {self}].

    Tallies of prepare statements are merged: a vote or acceptance of
    [Prepare (n', x)] also counts for every [Prepare (n, x)] with
    [n <= n'], because the higher prepare aborts strictly more ballots.

    {b Incremental evaluation.} {!iter_dirty} hands out only the
    statements whose inputs changed since their last evaluation: their
    own tally, the tally of a compatible prepare with an equal or
    higher counter, or the slice system. Skipping the others is exact,
    not a heuristic:
    - tallies and the slice system only grow (a node's first slice
      declaration wins);
    - quorum membership and v-blocking are monotone in both;
    - the non-monotone inputs (an accepted contradicting statement,
      the statement's own accepted/confirmed marks) can only turn
      {!can_accept} or {!can_confirm} from true to false.

    So a statement that evaluated to false and whose inputs have not
    changed would evaluate to false again, with no effect but the
    evaluation counters. *)

open Graphkit

type tally = {
  voters : Pid.Set.t;  (** nodes seen voting-or-accepting *)
  acceptors : Pid.Set.t;  (** nodes seen accepting *)
  mutable i_voted : bool;
  mutable i_accepted : bool;
  mutable i_confirmed : bool;
}

type t

val create :
  ?metrics:Obs.Metrics.t ->
  self:Pid.t ->
  system:(unit -> Fbqs.Quorum.system) ->
  unit ->
  t
(** [system] is consulted at every evaluation, so the slice knowledge
    may grow while voting is under way (nodes learn declarations from
    envelopes); it must return a physically new map whenever the
    knowledge changes. [metrics] counts the quorum and v-blocking
    evaluations actually performed ([scp_quorum_checks],
    [scp_vblocking_checks]); statements {!iter_dirty} skips cost
    none. *)

val self : t -> Pid.t

val tally : t -> Statement.t -> tally
(** The current (unmerged) tally for a statement (all-empty if never
    seen). *)

val record_vote : t -> Statement.t -> Pid.t -> unit
(** Registers that a node voted for the statement (also counts implied
    statements). Recording is idempotent. *)

val record_accept : t -> Statement.t -> Pid.t -> unit
(** Registers an acceptance (an acceptance also counts as
    vote-or-accept, and propagates to implied statements). *)

val set_voted : t -> Statement.t -> unit
(** Marks the local vote (the caller must also broadcast it and call
    {!record_vote} for itself). *)

val quorum_votes : t -> Statement.t -> bool
(** Whether a quorum containing this node voted-or-accepted it (merged
    tally). *)

val blocking_accepts : t -> Statement.t -> bool
(** Whether a v-blocking set for this node accepted it (merged
    tally). *)

val can_accept : t -> Statement.t -> bool
(** Not yet accepted, no accepted statement contradicts it (a prepare
    contradicts the commits of lower incompatible ballots and vice
    versa), and {!quorum_votes} or {!blocking_accepts}. *)

val can_confirm : t -> Statement.t -> bool
(** Not yet confirmed, and a quorum containing this node accepted it
    (merged tally). *)

val mark_accepted : t -> Statement.t -> unit

val mark_confirmed : t -> Statement.t -> unit

val statements : t -> Statement.t list
(** All statements with a non-trivial tally, in statement order. *)

val iter_dirty : t -> (Statement.t -> unit) -> unit
(** [iter_dirty t f] walks the statements known when it is called, in
    statement order, and applies [f] to each one that is new or whose
    inputs changed since [f] was last applied to it. A statement is
    marked clean just before [f] runs, so a tally change that [f]
    itself causes (e.g. the node's own acceptance) makes it due
    again. *)
