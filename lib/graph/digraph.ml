type t = { succ : Pid.Set.t Pid.Map.t; pred : Pid.Set.t Pid.Map.t }

let empty = { succ = Pid.Map.empty; pred = Pid.Map.empty }

let touch i m =
  if Pid.Map.mem i m then m else Pid.Map.add i Pid.Set.empty m

let add_vertex i g = { succ = touch i g.succ; pred = touch i g.pred }

let add_to i j m =
  let s = Option.value ~default:Pid.Set.empty (Pid.Map.find_opt i m) in
  Pid.Map.add i (Pid.Set.add j s) m

let add_edge i j g =
  let g = add_vertex i (add_vertex j g) in
  { succ = add_to i j g.succ; pred = add_to j i g.pred }

let vertices g = Pid.Map.keys g.succ
let n_vertices g = Pid.Map.cardinal g.succ
let mem_vertex i g = Pid.Map.mem i g.succ

let succs g i =
  Option.value ~default:Pid.Set.empty (Pid.Map.find_opt i g.succ)

let preds g i =
  Option.value ~default:Pid.Set.empty (Pid.Map.find_opt i g.pred)

let mem_edge i j g = Pid.Set.mem j (succs g i)

let n_edges g = Pid.Map.fold (fun _ s n -> n + Pid.Set.cardinal s) g.succ 0

let remove_vertex i g =
  let drop m = Pid.Map.map (Pid.Set.remove i) (Pid.Map.remove i m) in
  { succ = drop g.succ; pred = drop g.pred }

let remove_vertices vs g =
  (* One pass per map instead of folding [remove_vertex] (which rebuilds
     both maps once per removed vertex): drop the removed keys and
     subtract [vs] from every surviving adjacency row. *)
  if Pid.Set.is_empty vs then g
  else
    let drop m =
      Pid.Map.filter_map
        (fun i s -> if Pid.Set.mem i vs then None else Some (Pid.Set.diff s vs))
        m
    in
    { succ = drop g.succ; pred = drop g.pred }

(* Index of [j] in the ascending vertex array [verts.(lo..hi-1)]. *)
let rec vertex_index verts j lo hi =
  let mid = (lo + hi) / 2 in
  match Int.compare verts.(mid) j with
  | 0 -> mid
  | c when c < 0 -> vertex_index verts j (mid + 1) hi
  | _ -> vertex_index verts j lo mid

let of_succs rows =
  let succ =
    List.fold_left
      (fun m (i, s) ->
        Pid.Map.update i
          (function None -> Some s | Some s' -> Some (Pid.Set.union s s'))
          m)
      Pid.Map.empty rows
  in
  let succ = Pid.Map.fold (fun _ s m -> Pid.Set.fold touch s m) succ succ in
  (* One transposition pass: sources in descending order, so every
     predecessor bucket fills in ascending order. *)
  let verts = Array.of_seq (Seq.map fst (Pid.Map.to_seq succ)) in
  let n = Array.length verts in
  let buckets = Array.make n [] in
  Seq.iter
    (fun (i, s) ->
      Pid.Set.iter
        (fun j ->
          let k = vertex_index verts j 0 n in
          buckets.(k) <- i :: buckets.(k))
        s)
    (Pid.Map.to_rev_seq succ);
  let pred = ref Pid.Map.empty in
  Array.iteri
    (fun k i -> pred := Pid.Map.add i (Pid.Set.of_list buckets.(k)) !pred)
    verts;
  { succ; pred = !pred }

let of_edges es =
  of_succs (List.map (fun (i, j) -> (i, Pid.Set.singleton j)) es)

let of_adjacency adj =
  of_succs (List.map (fun (i, js) -> (i, Pid.Set.of_list js)) adj)

let edges g =
  Pid.Map.fold
    (fun i s acc -> Pid.Set.fold (fun j acc -> (i, j) :: acc) s acc)
    g.succ []
  |> List.rev

let fold_vertices f g acc = Pid.Map.fold (fun i _ acc -> f i acc) g.succ acc
let iter_succs f g = Pid.Map.iter f g.succ
let fold_edges f g acc = List.fold_left (fun acc (i, j) -> f i j acc) acc (edges g)

let subgraph vs g =
  let keep m =
    Pid.Map.filter_map
      (fun i s -> if Pid.Set.mem i vs then Some (Pid.Set.inter s vs) else None)
      m
  in
  { succ = keep g.succ; pred = keep g.pred }

let transpose g = { succ = g.pred; pred = g.succ }

let union a b =
  let merged base extra =
    Pid.Map.union (fun _ s1 s2 -> Some (Pid.Set.union s1 s2)) base extra
  in
  { succ = merged a.succ b.succ; pred = merged a.pred b.pred }

let undirected g = union g (transpose g)

let equal a b = Pid.Map.equal Pid.Set.equal a.succ b.succ

let pp ppf g =
  Format.fprintf ppf "@[<v>";
  Pid.Map.iter
    (fun i s -> Format.fprintf ppf "%d -> %a@," i Pid.Set.pp s)
    g.succ;
  Format.fprintf ppf "@]"
