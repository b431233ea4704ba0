(* Seeded inputs for every workload, built through the library API.

   Graphs come from [Graphkit.Generators] and slice systems from
   [Fbqs.Topology] directly — never through the CLI, whose [--f N]
   resolves as a prefix of [--faulty] (see README.md). The same run
   seed always yields the same inputs. *)

open Graphkit

(* A distinct seed per operation: operation [i] of run [seed]. Every
   input below is made from ([seed], [i]). *)
let op_seed ~seed i = (seed * 100_003) + i

(* Set-up warms up on inputs that do not depend on the run seed, so
   set-up does the same work in every run. *)
let warmup_seed = 0

let rng seed salt = Random.State.make [| seed; salt |]

(* [k] distinct ints drawn from [0 .. n-1], ascending. *)
let distinct st ~k ~n =
  let rec go acc =
    if List.length acc = k then List.sort compare acc
    else
      let x = Random.State.int st n in
      go (if List.mem x acc then acc else x :: acc)
  in
  go []

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* ---- analyze-live: live-network-shaped slice systems -------------------- *)

(* The top tier of the default [stellarbeat_like] shape: 7 orgs x 3. *)
let top_tier_size = 21

type topology = { text : string; despite : int list }

let topology ~seed i =
  let s = op_seed ~seed i in
  let sys = Fbqs.Topology.stellarbeat_like ~seed:s () in
  {
    text = Fbqs.Fbas_io.to_string sys;
    despite = distinct (rng s 1) ~k:3 ~n:top_tier_size;
  }

let analysis_options ?(jobs = 1) ?(cap = Serve.Api.default_analysis_options.cap)
    despite =
  {
    Serve.Api.default_analysis_options with
    blocking = true;
    despite = [ despite ];
    cap;
    jobs;
  }

(* ---- consensus-sd: Corollary 2 on random k-OSR graphs ------------------- *)

type consensus = {
  c_seed : int;
  graph : Digraph.t;
  f : int;
  faulty : Pid.Set.t;
}

let consensus_sink = 7
let consensus_non_sink = 6
let consensus_f = 2

let consensus ~seed i =
  let s = op_seed ~seed i in
  let f = consensus_f in
  let graph =
    Generators.random_k_osr ~seed:s ~sink_size:consensus_sink
      ~non_sink:consensus_non_sink
      ~k:((2 * f) + 1)
      ()
  in
  (* 0 to f silent faulty processes, chosen by the seed. Their number
     cycles with [i], so every run has the same mix of fault counts —
     it moves an operation's cost by up to 2x. *)
  let count = ((i mod (f + 1)) + f + 1) mod (f + 1) in
  let faulty = Generators.random_faulty_set ~seed:s ~f:count graph in
  { c_seed = s; graph; f; faulty }

(* ---- sink-detect: Algorithm 3 on larger k-OSR graphs -------------------- *)

type sink = { s_seed : int; s_graph : Digraph.t; s_f : int }

let sink_f = 3

let sink ~seed i =
  let s = op_seed ~seed i in
  {
    s_seed = s;
    s_graph =
      Generators.random_k_osr ~seed:s ~sink_size:10 ~non_sink:10
        ~k:((2 * sink_f) + 1)
        ();
    s_f = sink_f;
  }

(* ---- serve-mix: a daemon request stream --------------------------------- *)

type kind = Ping | Stats | Hit | Miss | Run | Run_trace

type request = {
  kind : kind;
  fields : (string * Obs.Json.t) list;  (** the request without its id *)
  key : string;
      (** [fields] serialized: equal keys get equal payloads, and the
          daemon caches responses under the same key *)
  line : string;
}

(* The requests of one connection: a fixed count of each kind. *)
type mix = { ping : int; stats : int; hit : int; miss : int; run : int }

let serve_files = 8

(* Client connections, and the daemon's [--max-clients]. *)
let serve_connections = 2

(* serve-mix analyze requests list every minimal quorum and blocking
   set (about 50 KB of payload), so that answering a cache hit is
   mostly encoding and transport work. *)
let serve_cap = 100_000

let analyze_fields ~file despite =
  let module J = Obs.Json in
  [
    ("verb", J.String "analyze");
    ("file", J.String file);
    ("blocking", J.Bool true);
    ("despite", J.List [ J.List (List.map (fun i -> J.Int i) despite) ]);
    ("cap", J.Int serve_cap);
  ]

let run_fields ~seed ~faulty ~trace =
  let module J = Obs.Json in
  [
    ("verb", J.String "run");
    ("graph", J.String "random");
    ("seed", J.Int seed);
    ("sink_size", J.Int consensus_sink);
    ("non_sink", J.Int consensus_non_sink);
    ("f", J.Int consensus_f);
    ("faulty", J.List (List.map (fun i -> J.Int i) (Pid.Set.elements faulty)));
  ]
  @ if trace then [ ("trace", J.Bool true) ] else []

let request ~id kind fields =
  let module J = Obs.Json in
  {
    kind;
    fields;
    key = J.to_string (J.Obj fields);
    line = J.to_string (J.Obj (("id", J.Int id) :: fields));
  }

(* One request stream per connection, plus one traced run per
   connection to be sent on its own. Every analyze miss and every run
   is unique across the whole run, so it reaches the engine; every hit
   repeats one of the last [recent] misses of its connection, so it is
   answered from the daemon's response cache (which holds 64 entries)
   whatever the other connection does. *)
let recent = 3

let serve_streams ~seed ~files mix =
  let st = rng seed 3 in
  let next_id = ref 0 and next_run = ref 0 and seen = Hashtbl.create 64 in
  let id () =
    incr next_id;
    !next_id
  in
  let run kind =
    incr next_run;
    let c = consensus ~seed (50_000 + !next_run) in
    request ~id:(id ()) kind
      (run_fields ~seed:c.c_seed ~faulty:c.faulty ~trace:(kind = Run_trace))
  in
  let stream () =
    let kinds =
      List.concat
        [
          List.init mix.ping (fun _ -> Ping);
          List.init mix.stats (fun _ -> Stats);
          List.init mix.hit (fun _ -> Hit);
          List.init mix.miss (fun _ -> Miss);
          List.init mix.run (fun _ -> Run);
        ]
    in
    (* The mix in an order drawn from the seed; a hit needs an earlier
       miss, so the stream opens with its miss. *)
    let rec drop_first = function
      | Miss :: rest -> rest
      | k :: rest -> k :: drop_first rest
      | [] -> []
    in
    let kinds =
      let ks = shuffle st kinds in
      if List.mem Miss ks then Miss :: drop_first ks else ks
    in
    let misses = ref [] in
    List.map
      (fun kind ->
        match kind with
        | Ping -> request ~id:(id ()) kind [ ("verb", Obs.Json.String "ping") ]
        | Stats -> request ~id:(id ()) kind [ ("verb", Obs.Json.String "stats") ]
        | Miss ->
            (* The file and despite set are drawn until the pair is new. *)
            let rec fresh () =
              let file = files.(Random.State.int st (Array.length files)) in
              let fields = analyze_fields ~file (distinct st ~k:3 ~n:top_tier_size) in
              let key = Obs.Json.to_string (Obs.Json.Obj fields) in
              if Hashtbl.mem seen key then fresh ()
              else begin
                Hashtbl.replace seen key ();
                fields
              end
            in
            let fields = fresh () in
            misses := fields :: !misses;
            request ~id:(id ()) kind fields
        | Hit ->
            let pool = Array.of_list (List.filteri (fun i _ -> i < recent) !misses) in
            request ~id:(id ()) kind pool.(Random.State.int st (Array.length pool))
        | Run | Run_trace -> run kind)
      kinds
  in
  let streams = List.init serve_connections (fun _ -> stream ()) in
  (streams, List.init serve_connections (fun _ -> run Run_trace))
