module S = Set.Make (Int)

(* The cardinality is cached: [compare] orders by it first, and every
   statement-map lookup goes through [compare]. *)
type t = { card : int; set : S.t }

let of_set set = { card = S.cardinal set; set }
let of_ints l = of_set (S.of_list l)
let empty = of_set S.empty
let is_empty v = v.card = 0
let singleton i = of_set (S.singleton i)
let union a b = of_set (S.union a.set b.set)

let combine l =
  of_set (List.fold_left (fun acc v -> S.union acc v.set) S.empty l)

let compare a b =
  match Int.compare a.card b.card with 0 -> S.compare a.set b.set | c -> c

let equal a b = a.card = b.card && S.equal a.set b.set

let pp ppf v =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (S.elements v.set)

let to_list v = S.elements v.set
