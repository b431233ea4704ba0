(* In-memory spans around the benchmark's own calls into each layer.

   A span is (name, start, stop, parent). Spans nest through an
   explicit stack, are kept in memory while the run measures, and are
   written out as JSONL once it is over, so recording costs two clock
   reads and one allocation per layer call. Each span's duration is
   also filed, in milliseconds, under its name in [samples]. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  start : float;
  stop : float;
}

type t = {
  mutable spans : span list;  (** most recent first *)
  mutable stack : int list;
  mutable next : int;
  samples : Measure.Samples.t;
}

let create samples = { spans = []; stack = []; next = 0; samples }

let dur s = s.stop -. s.start

let record t name f =
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let id = t.next in
  t.next <- id + 1;
  t.stack <- id :: t.stack;
  let start = Measure.now () in
  let close () =
    let stop = Measure.now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; parent; start; stop } :: t.spans;
    Measure.Samples.add t.samples name (Measure.to_ms (stop -. start))
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let spans t = List.rev t.spans

let children t =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace kids s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt kids s.parent)))
    t.spans;
  fun id -> Option.value ~default:[] (Hashtbl.find_opt kids id)

(* Duration minus the durations of the direct children. *)
let self_time t =
  let kids = children t in
  fun s -> dur s -. List.fold_left (fun acc c -> acc +. dur c) 0. (kids s.id)

type layer = { layer : string; calls : int; total_ms : float; self_ms : float }

(* Total and self time per span name, in first-seen order. *)
let layers t =
  let self = self_time t in
  let order = ref [] and acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let calls, total, self_total =
        match Hashtbl.find_opt acc s.name with
        | Some v -> v
        | None ->
            order := s.name :: !order;
            (0, 0., 0.)
      in
      Hashtbl.replace acc s.name
        (calls + 1, total +. dur s, self_total +. self s))
    (spans t);
  List.rev_map
    (fun name ->
      let calls, total, self_total = Hashtbl.find acc name in
      {
        layer = name;
        calls;
        total_ms = Measure.to_ms total;
        self_ms = Measure.to_ms self_total;
      })
    !order

(* For every span named [root]: its duration and the part of it that
   its direct children do not cover. *)
let gaps t ~root =
  let kids = children t in
  List.filter_map
    (fun s ->
      if s.name <> root then None
      else
        let covered =
          List.fold_left (fun acc c -> acc +. dur c) 0. (kids s.id)
        in
        Some (dur s, dur s -. covered))
    (spans t)

(* One JSON line per span, times in microseconds from the first. *)
let to_channel oc ~source t =
  let origin = match spans t with [] -> 0. | s :: _ -> s.start in
  List.iter
    (fun s ->
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("source", Obs.Json.String source);
                ("id", Obs.Json.Int s.id);
                ("name", Obs.Json.String s.name);
                ("parent", Obs.Json.Int s.parent);
                ("start_us", Obs.Json.Float (1e6 *. (s.start -. origin)));
                ("end_us", Obs.Json.Float (1e6 *. (s.stop -. origin)));
              ]));
      output_char oc '\n')
    (spans t)
