open Graphkit

type tally = {
  voters : Pid.Set.t;
  acceptors : Pid.Set.t;
  mutable i_voted : bool;
  mutable i_accepted : bool;
  mutable i_confirmed : bool;
}

type t = {
  self : Pid.t;
  system : unit -> Fbqs.Quorum.system;
  mutable tallies : tally Statement.Map.t;
  mutable dirty : Statement.Set.t;
      (* statements whose inputs changed since their last evaluation *)
  mutable evaluated_under : Fbqs.Quorum.system;
      (* the slice system the clean statements were evaluated against *)
  c_quorum_checks : Obs.Metrics.counter option;
  c_vblocking_checks : Obs.Metrics.counter option;
}

let empty_tally () =
  {
    voters = Pid.Set.empty;
    acceptors = Pid.Set.empty;
    i_voted = false;
    i_accepted = false;
    i_confirmed = false;
  }

let create ?metrics ~self ~system () =
  let c name = Option.map (fun r -> Obs.Metrics.counter r name) metrics in
  {
    self;
    system;
    tallies = Statement.Map.empty;
    dirty = Statement.Set.empty;
    evaluated_under = system ();
    c_quorum_checks = c "scp_quorum_checks";
    c_vblocking_checks = c "scp_vblocking_checks";
  }

let self t = t.self

let tally t stmt =
  match Statement.Map.find_opt stmt t.tallies with
  | Some tl -> tl
  | None -> empty_tally ()

let mark_dirty t stmt = t.dirty <- Statement.Set.add stmt t.dirty

(* Sorts before every other prepare statement. *)
let first_prepare = Statement.Prepare (Ballot.make min_int Value.empty)

(* [stmt]'s tally changed. Besides [stmt] itself, a prepare tally feeds
   the merged tally of every compatible prepare with a lower or equal
   counter (see [merged_sets]); those all sort before it. *)
let touch t stmt =
  mark_dirty t stmt;
  match stmt with
  | Statement.Prepare b' ->
      let rec lower seq =
        match seq () with
        | Seq.Cons ((Statement.Prepare b, _), rest) when Ballot.compare b b' < 0
          ->
            if Ballot.compatible b b' then mark_dirty t (Statement.Prepare b);
            lower rest
        | Seq.Cons _ | Seq.Nil -> ()
      in
      lower (Statement.Map.to_seq_from first_prepare t.tallies)
  | Statement.Nominate _ | Statement.Commit _ -> ()

let set t stmt tl =
  t.tallies <- Statement.Map.add stmt tl t.tallies;
  touch t stmt

let rec record_vote t stmt src =
  let tl = tally t stmt in
  if not (Pid.Set.mem src tl.voters) then
    set t stmt { tl with voters = Pid.Set.add src tl.voters };
  List.iter (fun s -> record_vote t s src) (Statement.implied stmt)

let rec record_accept t stmt src =
  let tl = tally t stmt in
  if not (Pid.Set.mem src tl.voters && Pid.Set.mem src tl.acceptors) then
    set t stmt
      {
        tl with
        voters = Pid.Set.add src tl.voters;
        acceptors = Pid.Set.add src tl.acceptors;
      };
  List.iter (fun s -> record_accept t s src) (Statement.implied stmt)

let tally_exn t stmt =
  match Statement.Map.find_opt stmt t.tallies with
  | Some tl -> tl
  | None ->
      let tl = empty_tally () in
      set t stmt tl;
      tl

let set_voted t stmt = (tally_exn t stmt).i_voted <- true
let mark_accepted t stmt = (tally_exn t stmt).i_accepted <- true
let mark_confirmed t stmt = (tally_exn t stmt).i_confirmed <- true

let statements t = List.map fst (Statement.Map.bindings t.tallies)

(* ---- the federated-voting rules ----------------------------------- *)

(* A vote for Prepare (n', x) with n' >= n supports Prepare (n, x): the
   higher prepare aborts strictly more ballots. Concrete SCP messages
   carry ballot ranges; here tallies are merged at evaluation time.
   The compatible prepares with a counter of at least n all sort at or
   after Prepare (n, x), and the prepares end where the commits begin. *)
let merged_sets t stmt =
  match stmt with
  | Statement.Prepare b ->
      let rec merge voters acceptors seq =
        match seq () with
        | Seq.Cons ((Statement.Prepare b', tl), rest) ->
            if Ballot.compatible b b' then
              merge
                (Pid.Set.union voters tl.voters)
                (Pid.Set.union acceptors tl.acceptors)
                rest
            else merge voters acceptors rest
        | Seq.Cons _ | Seq.Nil -> (voters, acceptors)
      in
      merge Pid.Set.empty Pid.Set.empty
        (Statement.Map.to_seq_from stmt t.tallies)
  | Statement.Nominate _ | Statement.Commit _ ->
      let tl = tally t stmt in
      (tl.voters, tl.acceptors)

(* Accepting a statement is forbidden when we already accepted a
   contradicting one: prepare(b) aborts lower incompatible ballots, so
   it contradicts their commits, and vice versa. *)
let contradicts_accepted t stmt =
  let contradicts s =
    match (stmt, s) with
    | Statement.Prepare b, Statement.Commit b' ->
        Ballot.less_and_incompatible b' b
    | Statement.Commit b, Statement.Prepare b' ->
        Ballot.less_and_incompatible b b'
    | _ -> false
  in
  match stmt with
  | Statement.Nominate _ -> false
  | Statement.Prepare _ | Statement.Commit _ ->
      Statement.Map.exists
        (fun s tl -> tl.i_accepted && contradicts s)
        t.tallies

let bump = function Some c -> Obs.Metrics.incr c | None -> ()

(* Rule (a) of accept and the confirm rule demand a quorum containing
   this node all of whose members assert the statement — the node's own
   assertion is part of the tally (recorded when it broadcasts), so no
   special-casing of [self] here. *)
let member_of_quorum_within t s =
  bump t.c_quorum_checks;
  Pid.Set.mem t.self (Fbqs.Quorum.greatest_quorum_within (t.system ()) s)

let v_blocking t s =
  bump t.c_vblocking_checks;
  Fbqs.Quorum.is_v_blocking (t.system ()) t.self s

let quorum_votes t stmt = member_of_quorum_within t (fst (merged_sets t stmt))
let blocking_accepts t stmt = v_blocking t (snd (merged_sets t stmt))

let can_accept t stmt =
  (not (tally t stmt).i_accepted)
  && (not (contradicts_accepted t stmt))
  &&
  let voters, acceptors = merged_sets t stmt in
  member_of_quorum_within t voters || v_blocking t acceptors

let can_confirm t stmt =
  (not (tally t stmt).i_confirmed)
  && member_of_quorum_within t (snd (merged_sets t stmt))

(* ---- incremental evaluation ----------------------------------------- *)

(* A new slice system makes every statement due again. *)
let refresh t =
  let sys = t.system () in
  if sys != t.evaluated_under then begin
    t.evaluated_under <- sys;
    t.dirty <-
      Statement.Set.of_seq (Seq.map fst (Statement.Map.to_seq t.tallies))
  end

(* Jumps from dirty statement to dirty statement (a statement dirtied
   behind the walk waits for the next call), skipping the ones created
   after the walk began. *)
let iter_dirty t f =
  let known = t.tallies in
  let rec visit = function
    | None -> ()
    | Some stmt ->
        if Statement.Map.mem stmt known then begin
          t.dirty <- Statement.Set.remove stmt t.dirty;
          f stmt
        end;
        refresh t;
        visit
          (Statement.Set.find_first_opt
             (fun s -> Statement.compare s stmt > 0)
             t.dirty)
  in
  refresh t;
  visit (Statement.Set.min_elt_opt t.dirty)
