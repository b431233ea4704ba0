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

   The walk stops at the first quorum on each path and emits it as a
   candidate; minimality is settled afterwards by subsumption. Every
   minimal quorum of a searched universe is itself a candidate (its
   path is never pruned), so a candidate is minimal iff it contains no
   other candidate: one bitset inclusion test per pair, no fixpoint. *)

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
  mutable sccs : D.t list option;  (* cache of [quorum_sccs] *)
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
    sccs = None;
    c_explored = counter "fbqs_enum_explored";
    c_pruned = counter "fbqs_enum_pruned";
    c_found = counter "fbqs_enum_quorums_found";
  }

let system t = t.sys
let stats t = { explored = t.explored; pruned = t.pruned; found = t.found }

(* ---- contraction ------------------------------------------------------ *)

(* The SCCs of the trust graph restricted to the greatest quorum, kept
   only when they contain a quorum — the contraction step. Returns
   each component already shrunk to its own greatest quorum. Computed
   once per analyzer, with the trust edges read off the compiled dense
   slices. *)
let quorum_sccs t =
  match t.sccs with
  | Some sccs -> sccs
  | None ->
      let c = t.compiled in
      let w = Quorum.Compiled.greatest_quorum_within_d c (D.of_set t.parts) in
      let sccs =
        if D.is_empty w then []
        else begin
          let g =
            Digraph.of_succs
              (D.fold
                 (fun i rows ->
                   (i, D.to_set (D.inter (Quorum.Compiled.trust_d c i) w))
                   :: rows)
                 w [])
          in
          List.filter_map
            (fun scc ->
              let gq =
                Quorum.Compiled.greatest_quorum_within_d c (D.of_set scc)
              in
              if D.is_empty gq then None else Some gq)
            (Scc.components g)
        end
      in
      t.sccs <- Some sccs;
      sccs

(* Ascending cardinality, then set order. Cardinals are computed once
   per set, not per comparison ([Pid.Set.cardinal] walks the tree). *)
let canonical sets =
  List.map (fun s -> (Pid.Set.cardinal s, s)) sets
  |> List.sort (fun (ca, a) (cb, b) ->
         match Int.compare ca cb with 0 -> Pid.Set.compare a b | c -> c)
  |> List.map snd

(* ---- parallel sharding ------------------------------------------------ *)

(* Each search is one walk parameterised by a frontier depth and a
   tick sink ([tick_delta]). Unsharded runs walk with an unbounded
   frontier. For {!Simkit.Exec.map} the caller walks the tree down to a
   fixed frontier depth and each node at the frontier is captured (its
   exact arguments) instead of visited; the captured subtrees run as
   jobs with their own sinks. Subtrees are independent, results merge
   through {!canonical} (order-independent) and every sink is summed
   into the analyzer, so output and stats are byte-identical to the
   sequential run at every [jobs] count. Shards are dense-set/int data
   and the job closures capture only immutable arrays (the compiled
   system, the transposed quorum family); the compiled handle's own
   query tallies are the only shared mutable state jobs touch, and
   nothing downstream reads them. *)

let default_frontier_depth = 5

type tick_delta = {
  mutable d_explored : int;
  mutable d_pruned : int;
  mutable d_found : int;
}

let no_ticks () = { d_explored = 0; d_pruned = 0; d_found = 0 }

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

type mq_node = { selection : D.t; remaining : Pid.t list; available : D.t }

(* The one minimal-quorum walk: depth-first enumeration of the
   candidate quorums below [node], whose pool is already contracted to
   a greatest quorum. Candidates branch in ascending pid order, so the
   search tree is deterministic. Nodes [frontier] levels down go to
   [defer] unvisited (the sharding cut); every visited node ticks
   [ticks]. *)
let mq_walk c ~frontier ~defer ~emit ticks node =
  let rec go depth selection remaining available =
    if depth >= frontier then defer { selection; remaining; available }
    else begin
      ticks.d_explored <- ticks.d_explored + 1;
      if Quorum.Compiled.is_quorum_d c selection then begin
        (* Supersets of a quorum cannot be minimal: stop descending. *)
        emit selection
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
            else ticks.d_pruned <- ticks.d_pruned + 1
    end
  in
  go 0 node.selection node.remaining node.available

(* One deferred subtree, walked to the bottom with its own ticks. *)
let mq_run c node =
  let ticks = no_ticks () and acc = ref [] in
  mq_walk c ~frontier:max_int ~defer:ignore
    ~emit:(fun q -> acc := q :: !acc)
    ticks node;
  (!acc, ticks)

(* Candidates are distinct quorums and include every minimal quorum of
   the searched universes, so a candidate is minimal iff no other
   candidate lies inside it. Visiting them in ascending cardinality, a
   candidate's proper sub-candidates come first, and it suffices to
   test it against the minimal ones kept so far (any candidate inside
   it contains a kept one). *)
let keep_minimal candidates =
  List.map (fun q -> (D.cardinal q, q)) candidates
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.fold_left
       (fun kept (_, q) ->
         if List.exists (fun k -> D.subset k q) kept then kept else q :: kept)
       []

let minimal_quorums ?(jobs = 1) t =
  match t.minimal with
  | Some q -> q
  | None ->
      let result =
        if t.fallback then canonical (Quorum.minimal_quorums t.sys)
        else begin
          let sharded = jobs > 1 in
          let acc = ref [] and shards = ref [] and ticks = no_ticks () in
          List.iter
            (fun universe ->
              mq_walk t.compiled
                ~frontier:(if sharded then default_frontier_depth else max_int)
                ~defer:(fun node -> shards := node :: !shards)
                ~emit:(fun q -> acc := q :: !acc)
                ticks
                {
                  selection = D.empty;
                  remaining = D.elements universe;
                  available = universe;
                })
            (quorum_sccs t);
          apply_delta t ticks;
          if sharded then
            List.iter
              (fun (sets, delta) ->
                acc := List.rev_append sets !acc;
                apply_delta t delta)
              (Simkit.Exec.map ~jobs (mq_run t.compiled) (List.rev !shards));
          let kept = keep_minimal !acc in
          apply_delta t
            { d_explored = 0; d_pruned = 0; d_found = List.length kept };
          canonical (List.map D.to_set kept)
        end
      in
      t.minimal <- Some result;
      result

let top_tier ?jobs t =
  List.fold_left Pid.Set.union Pid.Set.empty (minimal_quorums ?jobs t)

(* ---- quorum intersection ---------------------------------------------- *)

type intersection = Intersects | Disjoint of Pid.Set.t * Pid.Set.t

(* A quorum outside [q] exists iff one survives inside some quorum SCC
   (every minimal quorum lies in one), so the fixpoints run over the
   few SCC members; only a hit pays for the witness partner, the
   greatest quorum outside [q] among all participants. *)
let complement_witness t q =
  let c = t.compiled and qd = D.of_set q in
  if
    List.exists
      (fun u -> Quorum.Compiled.contains_quorum_d c (D.diff u qd))
      (quorum_sccs t)
  then
    Some
      ( q,
        D.to_set
          (Quorum.Compiled.greatest_quorum_within_d c
             (D.diff (D.of_set t.parts) qd)) )
  else None

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
   exactly once).

   The family is searched transposed: quorums are numbered in
   canonical order, [hits.(v)] is the bitset of quorum indices
   containing [v], and a node's uncovered quorums are a bitset of
   indices. Choosing [v] is then one [D.diff] per child instead of a
   list filter over hundreds of quorums. *)

type family = { quorums : D.t array; hits : D.t array (* by pid *) }

let transpose quorums =
  let top =
    Array.fold_left
      (fun m q -> max m (Option.value ~default:(-1) (D.max_elt_opt q)))
      (-1) quorums
  in
  let members = Array.make (top + 1) [] in
  for i = Array.length quorums - 1 downto 0 do
    D.iter (fun v -> members.(v) <- i :: members.(v)) quorums.(i)
  done;
  { quorums; hits = Array.map D.of_list members }

(* Each member must be the sole hitter of some quorum:
   [hits.(b) ⊄ ⋃_{c ≠ b} hits.(c)]. One pass over [chosen] splits the
   quorum indices into those hit at least once and more than once. *)
let bk_minimal f chosen =
  let once, many =
    D.fold
      (fun c (once, many) ->
        let h = f.hits.(c) in
        (D.union once h, D.union many (D.inter once h)))
      chosen (D.empty, D.empty)
  in
  let sole = D.diff once many in
  D.for_all (fun b -> not (D.disjoint f.hits.(b) sole)) chosen

(* The usable members of the uncovered quorum with the fewest of them;
   the first such quorum (ascending index) wins ties (deterministic).
   Only the winner's member set is materialised. *)
let bk_best f uncovered excluded =
  let best = ref (-1) and best_card = ref max_int in
  D.iter
    (fun i ->
      let c = D.diff_cardinal f.quorums.(i) excluded in
      if c < !best_card then begin
        best := i;
        best_card := c
      end)
    uncovered;
  D.diff f.quorums.(!best) excluded

type bk_node = { chosen : D.t; uncovered : D.t; excluded : D.t }

exception Stop

(* The hitting-set tree branches much wider than the quorum search
   (one child per usable member of the pivot quorum), so its frontier
   sits shallower. *)
let blocking_frontier_depth = 3

(* The one hitting-set walk, from [node] down. Nodes [frontier] levels
   below [node] go to [defer] unvisited (the sharding cut); every
   visited node ticks [ticks]; each minimal hitting set goes to [emit],
   which may raise [Stop] to truncate the walk. *)
let bk_walk f ~frontier ~defer ~emit ticks node =
  let rec go depth chosen uncovered excluded =
    if depth >= frontier then defer { chosen; uncovered; excluded }
    else begin
      ticks.d_explored <- ticks.d_explored + 1;
      if D.is_empty uncovered then begin
        if bk_minimal f chosen then emit chosen
      end
      else
        let usable = bk_best f uncovered excluded in
        if D.is_empty usable then ticks.d_pruned <- ticks.d_pruned + 1
        else
          ignore
            (D.fold
               (fun v excluded ->
                 go (depth + 1) (D.add v chosen)
                   (D.diff uncovered f.hits.(v))
                   excluded;
                 D.add v excluded)
               usable excluded)
    end
  in
  go 0 node.chosen node.uncovered node.excluded

(* One deferred subtree, walked to the bottom with its own ticks. *)
let bk_run f node =
  let ticks = no_ticks () and acc = ref [] in
  bk_walk f ~frontier:max_int ~defer:ignore
    ~emit:(fun s -> acc := D.to_set s :: !acc)
    ticks node;
  (!acc, ticks)

let minimal_blocking_sets ?(limit = max_int) ?(jobs = 1) t =
  let quorums =
    List.map D.of_set (minimal_quorums ~jobs t) |> Array.of_list
  in
  let m = Array.length quorums in
  if m = 0 then { sets = []; complete = true }
  else begin
    (* Unlimited enumeration is order-independent, so subtrees below
       the frontier shard out like the quorum search. A finite [limit]
       walks the whole tree in the caller: truncation depends on
       discovery order, which sharding does not preserve. *)
    let sharded = jobs > 1 && limit = max_int in
    let f = transpose quorums in
    let acc = ref [] and count = ref 0 and shards = ref [] in
    let ticks = no_ticks () in
    let complete =
      try
        bk_walk f
          ~frontier:(if sharded then blocking_frontier_depth else max_int)
          ~defer:(fun node -> shards := node :: !shards)
          ~emit:(fun s ->
            acc := D.to_set s :: !acc;
            incr count;
            if !count >= limit then raise Stop)
          ticks
          {
            chosen = D.empty;
            uncovered = D.of_range 0 (m - 1);
            excluded = D.empty;
          };
        true
      with Stop -> false
    in
    apply_delta t ticks;
    if sharded then
      List.iter
        (fun (sets, delta) ->
          acc := List.rev_append sets !acc;
          apply_delta t delta)
        (Simkit.Exec.map ~jobs (bk_run f) (List.rev !shards));
    { sets = canonical !acc; complete }
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
