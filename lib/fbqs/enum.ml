open Graphkit
module D = Pid.Dense_set

(* Branch-and-bound analysis engine over the dense bitset kernel.

   Everything here is built on one search primitive: enumerate the
   inclusion-minimal quorums of a compiled system by branching on
   "pid in / pid out" decisions, with two exact prunings.

   - Contraction. All quorums live inside the greatest quorum [W] of
     the full participant set, and every minimal quorum lies within a
     single strongly connected component of the trust graph restricted
     to [W] (a minimal quorum restricted to a sink SCC of its own
     induced trust graph is itself a quorum, so minimality forces the
     quorum into one SCC). Only SCCs that contain a quorum are
     searched; live-network topologies collapse to a top tier of a few
     dozen validators this way.

   - Viability bound. A branch (selection, available) can produce a
     quorum iff [selection ⊆ greatest_quorum_within available]: the
     union of all quorums inside [available] is itself a quorum
     (quorums are closed under union), so the test is exact, and the
     branch's candidate pool shrinks to that greatest quorum.

   Found quorums are confirmed minimal on the spot (dropping any single
   member must leave no quorum), so no superset bookkeeping or global
   minimisation pass is needed and enumeration can stream with early
   exit — which is what makes the quorum-intersection check on a
   n=200-validator topology answer in well under a second. *)

type stats = { explored : int; pruned : int; found : int }

type t = {
  compiled : Quorum.Compiled.t;
  sys : Quorum.system;
  parts : Pid.Set.t;
  fallback : bool;  (* negative pids: Pid.Set brute-force path *)
  mutable explored : int;
  mutable pruned : int;
  mutable found : int;
  mutable minimal : Pid.Set.t list option;  (* cache, canonical order *)
  c_explored : Obs.Metrics.counter option;
  c_pruned : Obs.Metrics.counter option;
  c_found : Obs.Metrics.counter option;
}

let has_negative sys =
  (match Pid.Map.min_binding_opt sys with
  | Some (k, _) -> k < 0
  | None -> false)
  || Pid.Map.exists
       (fun _ s ->
         match Pid.Set.min_elt_opt (Slice.domain s) with
         | Some m -> m < 0
         | None -> false)
       sys

let prepare ?metrics sys =
  let counter name =
    Option.map (fun m -> Obs.Metrics.counter m name) metrics
  in
  {
    compiled = Quorum.compiled_of sys;
    sys;
    parts = Quorum.participants sys;
    fallback = has_negative sys;
    explored = 0;
    pruned = 0;
    found = 0;
    minimal = None;
    c_explored = counter "fbqs_enum_explored";
    c_pruned = counter "fbqs_enum_pruned";
    c_found = counter "fbqs_enum_quorums_found";
  }

let system t = t.sys
let stats t = { explored = t.explored; pruned = t.pruned; found = t.found }

let tick_explored t =
  t.explored <- t.explored + 1;
  Option.iter (fun c -> Obs.Metrics.incr c) t.c_explored

let tick_pruned t =
  t.pruned <- t.pruned + 1;
  Option.iter (fun c -> Obs.Metrics.incr c) t.c_pruned

let tick_found t =
  t.found <- t.found + 1;
  Option.iter (fun c -> Obs.Metrics.incr c) t.c_found

(* ---- the search primitive -------------------------------------------- *)

exception Stop

(* Depth-first enumeration of the minimal quorums inside [universe]
   (already contracted to a greatest quorum). [emit] returns [false] to
   abort the traversal. Candidates branch in ascending pid order, so
   the emission order — and with it every downstream report — is
   deterministic. *)
let explore t ~universe emit =
  let c = t.compiled in
  let minimal_quorum q =
    D.for_all
      (fun v -> not (Quorum.Compiled.contains_quorum_d c (D.remove v q)))
      q
  in
  let rec go selection remaining available =
    tick_explored t;
    if Quorum.Compiled.is_quorum_d c selection then begin
      (* Supersets of a quorum cannot be minimal: stop descending. *)
      if minimal_quorum selection then begin
        tick_found t;
        if not (emit selection) then raise Stop
      end
    end
    else
      match remaining with
      | [] -> ()
      | v :: rest ->
          go (D.add v selection) rest available;
          let available = D.remove v available in
          let gq = Quorum.Compiled.greatest_quorum_within_d c available in
          if D.subset selection gq then
            go selection (List.filter (fun u -> D.mem u gq) rest) gq
          else tick_pruned t
  in
  go D.empty (D.elements universe) universe

(* The SCCs of the trust graph restricted to the greatest quorum, kept
   only when they contain a quorum — the contraction step. Returns
   each component already shrunk to its own greatest quorum. *)
let quorum_sccs t =
  let c = t.compiled in
  let w = Quorum.Compiled.greatest_quorum_within_d c (D.of_set t.parts) in
  if D.is_empty w then []
  else begin
    let g =
      D.fold
        (fun i g ->
          let dom = Slice.domain (Quorum.slices_of t.sys i) in
          Pid.Set.fold
            (fun j g -> if D.mem j w then Digraph.add_edge i j g else g)
            dom
            (Digraph.add_vertex i g))
        w Digraph.empty
    in
    List.filter_map
      (fun scc ->
        let gq = Quorum.Compiled.greatest_quorum_within_d c (D.of_set scc) in
        if D.is_empty gq then None else Some gq)
      (Scc.components g)
  end

let canonical sets =
  List.sort
    (fun a b ->
      match Int.compare (Pid.Set.cardinal a) (Pid.Set.cardinal b) with
      | 0 -> Pid.Set.compare a b
      | c -> c)
    sets

(* ---- parallel sharding ------------------------------------------------ *)

(* The search trees shard for {!Simkit.Exec.map}: the DFS above a
   fixed frontier depth runs in the caller — ticking the analyzer
   exactly as the sequential walk does — and each call that would
   cross the frontier is captured (its exact [go] arguments) instead
   of descending. Subtrees are independent, results merge through
   {!canonical} (order-independent) and tick deltas are summed back
   afterwards, so output and stats are byte-identical to the
   sequential run at every [jobs] count. Shards are dense-set/int
   data and the job closures capture only the compiled system (bitset
   arrays and slice maps); the compiled handle's own query tallies
   are the only shared mutable state jobs touch, and nothing
   downstream reads them. *)

let default_frontier_depth = 5

type tick_delta = { d_explored : int; d_pruned : int; d_found : int }

let apply_delta t d =
  let bump counter by =
    match counter with
    | Some c when by > 0 -> Obs.Metrics.incr ~by c
    | _ -> ()
  in
  t.explored <- t.explored + d.d_explored;
  bump t.c_explored d.d_explored;
  t.pruned <- t.pruned + d.d_pruned;
  bump t.c_pruned d.d_pruned;
  t.found <- t.found + d.d_found;
  bump t.c_found d.d_found

(* ---- minimal quorums -------------------------------------------------- *)

type mq_shard = { mq_sel : D.t; mq_rem : Pid.t list; mq_avail : D.t }

(* The prefix of [explore]'s DFS above the frontier: same branching,
   same pruning, same ticks on [t]. Quorums found above the frontier
   come back alongside the deferred frontier calls. *)
let mq_cut t ~universe =
  let c = t.compiled in
  let minimal_quorum q =
    D.for_all
      (fun v -> not (Quorum.Compiled.contains_quorum_d c (D.remove v q)))
      q
  in
  let shards = ref [] and above = ref [] in
  let rec go depth selection remaining available =
    if depth >= default_frontier_depth then
      shards :=
        { mq_sel = selection; mq_rem = remaining; mq_avail = available }
        :: !shards
    else begin
      tick_explored t;
      if Quorum.Compiled.is_quorum_d c selection then begin
        if minimal_quorum selection then begin
          tick_found t;
          above := D.to_set selection :: !above
        end
      end
      else
        match remaining with
        | [] -> ()
        | v :: rest ->
            go (depth + 1) (D.add v selection) rest available;
            let available = D.remove v available in
            let gq = Quorum.Compiled.greatest_quorum_within_d c available in
            if D.subset selection gq then
              go (depth + 1) selection
                (List.filter (fun u -> D.mem u gq) rest)
                gq
            else tick_pruned t
    end
  in
  go 0 D.empty (D.elements universe) universe;
  (List.rev !shards, !above)

(* One deferred subtree, recursed to the bottom with local counters —
   the body of [explore], minus the shared analyzer state. *)
let mq_run c sh =
  let explored = ref 0 and pruned = ref 0 and found = ref 0 in
  let acc = ref [] in
  let minimal_quorum q =
    D.for_all
      (fun v -> not (Quorum.Compiled.contains_quorum_d c (D.remove v q)))
      q
  in
  let rec go selection remaining available =
    incr explored;
    if Quorum.Compiled.is_quorum_d c selection then begin
      if minimal_quorum selection then begin
        incr found;
        acc := D.to_set selection :: !acc
      end
    end
    else
      match remaining with
      | [] -> ()
      | v :: rest ->
          go (D.add v selection) rest available;
          let available = D.remove v available in
          let gq = Quorum.Compiled.greatest_quorum_within_d c available in
          if D.subset selection gq then
            go selection (List.filter (fun u -> D.mem u gq) rest) gq
          else incr pruned
  in
  go sh.mq_sel sh.mq_rem sh.mq_avail;
  (!acc, { d_explored = !explored; d_pruned = !pruned; d_found = !found })

let minimal_quorums_sharded ~jobs t =
  let c = t.compiled in
  let acc = ref [] in
  let shards =
    List.concat_map
      (fun universe ->
        let shards, above = mq_cut t ~universe in
        acc := List.rev_append above !acc;
        shards)
      (quorum_sccs t)
  in
  List.iter
    (fun (sets, delta) ->
      acc := List.rev_append sets !acc;
      apply_delta t delta)
    (Simkit.Exec.map ~jobs (mq_run c) shards);
  canonical !acc

let minimal_quorums ?(jobs = 1) t =
  match t.minimal with
  | Some q -> q
  | None ->
      let result =
        if t.fallback then canonical (Quorum.minimal_quorums t.sys)
        else if jobs > 1 then minimal_quorums_sharded ~jobs t
        else begin
          let acc = ref [] in
          List.iter
            (fun universe ->
              explore t ~universe (fun q ->
                  acc := D.to_set q :: !acc;
                  true))
            (quorum_sccs t);
          canonical !acc
        end
      in
      t.minimal <- Some result;
      result

let top_tier ?jobs t =
  List.fold_left Pid.Set.union Pid.Set.empty (minimal_quorums ?jobs t)

(* ---- quorum intersection ---------------------------------------------- *)

type intersection = Intersects | Disjoint of Pid.Set.t * Pid.Set.t

let complement_witness t q =
  let partner =
    Quorum.Compiled.greatest_quorum_within_d t.compiled
      (D.diff (D.of_set t.parts) (D.of_set q))
  in
  if D.is_empty partner then None else Some (q, D.to_set partner)

let check_intersection ?jobs t =
  if t.fallback then begin
    (* Negative pids: minimal quorums via the enumeration reference,
       then a pairwise scan (tiny systems only — the reference is
       guarded to 20 participants). *)
    let quorums = minimal_quorums t in
    let rec scan = function
      | [] -> Intersects
      | q :: rest -> (
          match List.find_opt (Pid.Set.disjoint q) rest with
          | Some q' -> Disjoint (q, q')
          | None -> scan rest)
    in
    scan quorums
  end
  else
    match t.minimal with
    | Some quorums -> (
        (* Enumeration already ran: one complement check per cached
           minimal quorum, no new search. *)
        match List.find_map (complement_witness t) quorums with
        | Some (q, q') -> Disjoint (q, q')
        | None -> Intersects)
    | None -> (
        match quorum_sccs t with
        | [] -> Intersects (* no quorums at all: vacuously true *)
        | s1 :: s2 :: _ ->
            (* Two disjoint SCCs each containing a quorum: their
               greatest quorums are disjoint witnesses, no search
               needed. *)
            Disjoint (D.to_set s1, D.to_set s2)
        | [ _ ] -> (
            (* Any two disjoint quorums can be shrunk so one is
               minimal, so it suffices to test, per minimal quorum,
               whether its complement still contains a quorum.
               Enumeration runs to completion (filling the cache) at
               every [jobs] count, so the result — witness choice
               included — and the tick totals never depend on the
               degree of parallelism. *)
            let quorums = minimal_quorums ?jobs t in
            match List.find_map (complement_witness t) quorums with
            | Some (q, q') -> Disjoint (q, q')
            | None -> Intersects))

let quorum_intersection ?metrics ?jobs sys =
  check_intersection ?jobs (prepare ?metrics sys)

let quorum_intersection_despite ?metrics ?jobs sys b =
  match quorum_intersection ?metrics ?jobs (Quorum.delete sys b) with
  | Intersects -> true
  | Disjoint _ -> false

(* ---- minimal blocking sets -------------------------------------------- *)

type blocking = { sets : Pid.Set.t list; complete : bool }

(* Availability is judged on the original system (Mazières), so a set
   blocks the whole system iff it hits every quorum — equivalently
   every minimal quorum. Minimal blocking sets are then the minimal
   hitting sets of the minimal-quorum family, enumerated by branching
   on the members of an uncovered quorum with the usual
   "exclude-previous-branches" discipline (each hitting set is reached
   exactly once). *)

(* each member must be the sole hitter of some quorum *)
let bk_minimal quorums chosen =
  D.for_all
    (fun b ->
      Array.exists
        (fun q -> D.mem b q && D.inter_cardinal q chosen = 1)
        quorums)
    chosen

(* branch on the uncovered quorum with the fewest usable members;
   first such quorum wins ties (deterministic) *)
let bk_best uncovered excluded =
  List.fold_left
    (fun best q ->
      let usable = D.diff q excluded in
      let c = D.cardinal usable in
      match best with
      | Some (_, bc) when bc <= c -> best
      | _ -> Some (usable, c))
    None uncovered

type bk_shard = {
  bk_chosen : D.t;
  bk_uncovered : D.t list;
  bk_excluded : D.t;
}

(* The hitting-set tree branches much wider than the quorum search
   (one child per usable member of the pivot quorum), so its frontier
   sits shallower. *)
let blocking_frontier_depth = 3

let bk_cut t quorums =
  let shards = ref [] and above = ref [] in
  let rec go depth chosen uncovered excluded =
    if depth >= blocking_frontier_depth then
      shards :=
        { bk_chosen = chosen; bk_uncovered = uncovered; bk_excluded = excluded }
        :: !shards
    else begin
      tick_explored t;
      match uncovered with
      | [] ->
          if bk_minimal quorums chosen then
            above := D.to_set chosen :: !above
      | _ ->
          let usable, card = Option.get (bk_best uncovered excluded) in
          if card = 0 then tick_pruned t
          else
            ignore
              (D.fold
                 (fun v excluded ->
                   go (depth + 1) (D.add v chosen)
                     (List.filter (fun q -> not (D.mem v q)) uncovered)
                     excluded;
                   D.add v excluded)
                 usable excluded)
    end
  in
  go 0 D.empty (Array.to_list quorums) D.empty;
  (List.rev !shards, !above)

let bk_run quorums sh =
  let explored = ref 0 and pruned = ref 0 in
  let results = ref [] in
  let rec go chosen uncovered excluded =
    incr explored;
    match uncovered with
    | [] ->
        if bk_minimal quorums chosen then
          results := D.to_set chosen :: !results
    | _ ->
        let usable, card = Option.get (bk_best uncovered excluded) in
        if card = 0 then incr pruned
        else
          ignore
            (D.fold
               (fun v excluded ->
                 go (D.add v chosen)
                   (List.filter (fun q -> not (D.mem v q)) uncovered)
                   excluded;
                 D.add v excluded)
               usable excluded)
  in
  go sh.bk_chosen sh.bk_uncovered sh.bk_excluded;
  (!results, { d_explored = !explored; d_pruned = !pruned; d_found = 0 })

let minimal_blocking_sets ?(limit = max_int) ?(jobs = 1) t =
  let quorums =
    List.map D.of_set (minimal_quorums ~jobs t) |> Array.of_list
  in
  if Array.length quorums = 0 then { sets = []; complete = true }
  else if jobs > 1 && limit = max_int then begin
    (* Unlimited enumeration is order-independent, so subtrees below
       the frontier shard out like the quorum search. A finite [limit]
       keeps the sequential path: truncation depends on discovery
       order, which sharding does not preserve. *)
    let shards, above = bk_cut t quorums in
    let acc = ref above in
    List.iter
      (fun (sets, delta) ->
        acc := List.rev_append sets !acc;
        apply_delta t delta)
      (Simkit.Exec.map ~jobs (bk_run quorums) shards);
    { sets = canonical !acc; complete = true }
  end
  else begin
    let results = ref [] and count = ref 0 and complete = ref true in
    let rec go chosen uncovered excluded =
      tick_explored t;
      match uncovered with
      | [] ->
          if bk_minimal quorums chosen then begin
            results := D.to_set chosen :: !results;
            incr count;
            if !count >= limit then begin
              complete := false;
              raise Stop
            end
          end
      | _ ->
          let usable, card = Option.get (bk_best uncovered excluded) in
          if card = 0 then tick_pruned t
          else
            ignore
              (D.fold
                 (fun v excluded ->
                   go (D.add v chosen)
                     (List.filter (fun q -> not (D.mem v q)) uncovered)
                     excluded;
                   D.add v excluded)
                 usable excluded)
    in
    (try go D.empty (Array.to_list quorums) D.empty with Stop -> ());
    { sets = canonical !results; complete = !complete }
  end

(* ---- minimal splitting sets -------------------------------------------- *)

(* Deletion is not monotone (deleting everything leaves a vacuously
   intersecting system), so splitting sets are found by exhaustive
   cardinality-ordered sweep over the candidate universe, with
   supersets of already-found splitting sets skipped: when candidates
   are visited in increasing size, a splitting set containing no
   smaller splitting set is inclusion-minimal, exactly. The universe
   defaults to the top tier — the sweep is exponential in its size, so
   [max_size] bounds the sweep for live-scale use. *)
let next_same_popcount c =
  let lo = c land -c in
  let ripple = c + lo in
  ripple lor (((c lxor ripple) lsr 2) / lo)

let minimal_splitting_sets ?metrics ?universe ?max_size ?(jobs = 1) t =
  let universe =
    match universe with Some u -> u | None -> top_tier ~jobs t
  in
  let elts = Array.of_list (Pid.Set.elements universe) in
  let n = Array.length elts in
  if n > 62 then
    invalid_arg "Enum.minimal_splitting_sets: universe larger than 62";
  let max_size = min (Option.value ~default:n max_size) n in
  let set_of_mask mask =
    let s = ref Pid.Set.empty in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then s := Pid.Set.add elts.(i) !s
    done;
    !s
  in
  (* Candidate checks run metrics-free — a live registry is shared
     mutable state no parallel job may touch — and return their tick
     counts instead; the caller replays the deltas into [metrics] in
     candidate order, so the counters come out identical to a
     sequential sweep at every [jobs] count. *)
  let counters =
    Option.map
      (fun m ->
        ( Obs.Metrics.counter m "fbqs_enum_explored",
          Obs.Metrics.counter m "fbqs_enum_pruned",
          Obs.Metrics.counter m "fbqs_enum_quorums_found" ))
      metrics
  in
  let replay (st : stats) =
    match counters with
    | None -> ()
    | Some (ce, cp, cf) ->
        if st.explored > 0 then Obs.Metrics.incr ~by:st.explored ce;
        if st.pruned > 0 then Obs.Metrics.incr ~by:st.pruned cp;
        if st.found > 0 then Obs.Metrics.incr ~by:st.found cf
  in
  let sys = t.sys in
  let splits_checked b =
    let t' = prepare (Quorum.delete sys b) in
    let hit =
      match check_intersection t' with
      | Intersects -> false
      | Disjoint _ -> true
    in
    (hit, stats t')
  in
  let hit0, st0 = splits_checked Pid.Set.empty in
  replay st0;
  if hit0 then [ Pid.Set.empty ]
  else begin
    let found_masks = ref [] and found = ref [] in
    let k = ref 1 in
    while !k <= max_size do
      (* A size-k mask can only be a superset of a strictly smaller
         found mask (an equal-size superset is equality, and each mask
         is visited once), so the whole cardinality layer filters
         against the previous layers' finds and its candidates are
         independent — they evaluate in parallel, with hits appended
         in ascending mask order. *)
      let candidates = ref [] in
      let mask = ref ((1 lsl !k) - 1) in
      let limit = 1 lsl n in
      while !mask < limit do
        let m = !mask in
        if not (List.exists (fun f -> m land f = f) !found_masks) then
          candidates := m :: !candidates;
        mask := next_same_popcount m
      done;
      List.iter
        (fun (m, hit, st) ->
          replay st;
          if hit then begin
            found_masks := m :: !found_masks;
            found := set_of_mask m :: !found
          end)
        (Simkit.Exec.map ~jobs
           (fun m ->
             let hit, st = splits_checked (set_of_mask m) in
             (m, hit, st))
           (List.rev !candidates));
      incr k
    done;
    canonical !found
  end
