(* The end-to-end benchmark: one workload per process.

     e2e.exe --workload NAME --seed N --seconds S --trace 0|1
             --calibrator EXE --cli EXE

   Generates every input from the seed, runs a fixed number of closed-
   loop operations sized to take about S seconds, checks every output,
   and prints one JSON object as the last line of standard output.
   With --trace 0 it reports the end-to-end metrics; with --trace 1
   the per-layer metrics, timed by spans around this program's own
   calls into each library. perfbench/run.py builds and runs it; see
   perfbench/README.md for the workloads and metrics. *)

module J = Obs.Json
module S = Measure.Samples

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  calibrator : string;  (** calibrate.exe *)
  cli : string;  (** the stellar-cup executable, for the serve probe *)
  out_dir : string;
  git_sha : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and calibrator = ref "" and cli = ref ""
  and out_dir = ref ".bench_out"
  and git_sha = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S target measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--calibrator", Arg.Set_string calibrator, "EXE calibrate.exe");
      ("--cli", Arg.Set_string cli, "EXE the stellar-cup executable");
      ("--out-dir", Arg.Set_string out_dir, "DIR where spans and results go");
      ("--git-sha", Arg.Set_string git_sha, "SHA recorded with the results");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe --workload NAME --seed N --seconds S --trace 0|1 --calibrator EXE --cli EXE";
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    calibrator = !calibrator;
    cli = !cli;
    out_dir = !out_dir;
    git_sha = !git_sha;
  }

(* ---- workload sizes ----------------------------------------------------- *)

(* Operations per second each workload is sized for on a 2-core host:
   a run does [seconds * rate] operations, a fixed count, so the tail
   percentile sits at the same rank in every run. *)
let analyze_rate = 7.
let consensus_rate = 10.

let ops a rate = max 24 (int_of_float (Float.round (a.seconds *. rate)))

(* Set-ups per run, and the steps each is cut into. *)
let setup_reps = 5
let setup_steps = 10

(* The serve-mix request mix of one connection: 80% cheap requests
   (ping, stats, cache hits) and 20% engine work. *)
let serve_mix = { Inputs.ping = 3; stats = 1; hit = 4; miss = 1; run = 1 }

(* ---- results ------------------------------------------------------------ *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  detail : (string * J.t) list;
}

let count_failed checks = List.length (List.filter not checks)

(* [make i] for every [i] below [n], in [setup_steps] steps of
   near-equal size. *)
let input_steps n make =
  List.init setup_steps (fun step () ->
      List.filter_map
        (fun i -> if i * setup_steps / n = step then Some (make i) else None)
        (List.init n Fun.id))

(* Runs a set-up [setup_reps] times, each from a compacted heap that no
   earlier result holds on to. A set-up is a list of steps, each timed
   as a stretch of its own with a calibration reading after it, so that
   a set-up is scaled by the host speed along it as operations are.
   Returns the concatenated results of the last set-up and the steps'
   timings of every set-up. *)
let repeated_setup steps =
  let last = ref [] and times = ref [] in
  for _ = 1 to setup_reps do
    last := [];
    Gc.compact ();
    let results = Calib.map (fun step -> step ()) steps in
    last := List.concat_map fst results;
    times := List.map snd results :: !times
  done;
  (!last, List.rev !times)

(* The six end-to-end metrics from raw timings: one latency per
   operation and the steps of each set-up. Times are scaled by the
   calibration readings around them; the raw figures go in the detail,
   and per-operation latencies and readings in the results file. *)
let end_to_end ~latencies ~setup ~rss ~attempted ~failed ~detail =
  let raw = List.map (fun (t : Calib.timed) -> t.raw_s) in
  let scaled =
    List.map (fun (t : Calib.timed) -> t.raw_s *. Calib.local_factor t.before)
  in
  let n = List.length latencies in
  let sum = List.fold_left ( +. ) 0. in
  let setups scale = List.map (fun steps -> sum (scale steps)) setup in
  let figures scale =
    let ms = List.map Measure.to_ms (scale latencies) in
    let tail = Measure.tail ms in
    ( [
        ("op_p50_ms", Measure.median ms, "ms");
        ("op_tail_ms", tail.value, "ms");
        ("ops_per_s", float_of_int n /. sum (scale latencies), "1/s");
        ("setup_s", Measure.median (setups scale), "s");
      ],
      tail )
  in
  let metrics, tail = figures scaled and raw_metrics, _ = figures raw in
  let error_rate = float_of_int failed /. float_of_int attempted in
  let floats l = J.List (List.map (fun x -> J.Float x) l) in
  {
    attempted;
    failed;
    metrics =
      metrics
      @ [ ("ok_rate", 1. -. error_rate, "ratio"); ("peak_rss_mb", rss, "MiB") ];
    detail =
      [
        ("ops", J.Int n);
        ("tail_percentile", J.Float tail.percentile);
        ("tail_samples_above", J.Int tail.above);
        ("error_rate", J.Float error_rate);
        ("calib_reference_ms", J.Float Calib.reference_ms);
        ("calib_median_ms", J.Float (Calib.median_reading ()));
        ("raw", J.Obj (List.map (fun (k, v, _) -> (k, J.Float v)) raw_metrics));
        ("op_raw_ms", floats (List.map Measure.to_ms (raw latencies)));
        ("setup_raw_s", floats (setups raw));
        ( "op_before",
          J.List (List.map (fun (t : Calib.timed) -> J.Int t.before) latencies) );
        ("calib_readings_ms", floats (List.rev !Calib.readings));
      ]
      @ detail;
  }

(* ---- untraced workloads ------------------------------------------------- *)

(* One operation on a seed-independent input, after set-up and timed
   by neither: it grows the heap to its working size before the timed
   operations start. *)
let warm_up op = ignore (Sys.opaque_identity (op ()))

let analyze_live a =
  let n = ops a analyze_rate in
  let inputs, setup =
    repeated_setup
      ((fun () ->
         Simkit.Exec.Pool.shutdown ();
         [])
      :: input_steps n (Inputs.topology ~seed:a.seed)
      @ [
          (fun () ->
            (* Spawns the worker pool. *)
            ignore (Simkit.Exec.map ~jobs:2 Fun.id [ 0; 1 ]);
            []);
        ])
  in
  warm_up (fun () -> Layers.analyze ~jobs:2 (Inputs.topology ~seed:Inputs.warmup_seed 0));
  let runs = Calib.map (Layers.analyze ~jobs:2) inputs in
  let rss = Measure.self_peak_rss_mb () in
  let golden = Layers.golden_matches ~jobs:2 in
  let parity =
    List.map2
      (fun inp (p, _) -> Measure.time (fun () -> Layers.analyze ~jobs:1 inp = p))
      inputs runs
  in
  let jobs1_ms = List.map (fun (_, t) -> Measure.to_ms t) parity in
  let parity = List.map fst parity in
  let checks = golden :: parity in
  let latencies = List.map snd runs in
  end_to_end ~latencies ~setup ~rss
    ~attempted:(List.length checks) ~failed:(count_failed checks)
    ~detail:
      [
        ("golden_match", J.Bool golden);
        ("jobs_parity_failures", J.Int (count_failed parity));
        ("jobs1_raw_op_p50_ms", J.Float (Measure.median jobs1_ms));
      ]

let consensus_sd a =
  let n = ops a consensus_rate in
  let inputs, setup =
    repeated_setup (input_steps n (Inputs.consensus ~seed:a.seed))
  in
  warm_up (fun () -> Layers.consensus (Inputs.consensus ~seed:Inputs.warmup_seed 0));
  let runs = Calib.map Layers.consensus inputs in
  let rss = Measure.self_peak_rss_mb () in
  let checks = List.map (fun (v, _) -> Layers.consensus_ok v) runs in
  let latencies = List.map snd runs in
  end_to_end ~latencies ~setup ~rss
    ~attempted:(List.length checks) ~failed:(count_failed checks) ~detail:[]

(* ---- serve-mix ---------------------------------------------------------- *)

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

(* Writes the topology files and starts a daemon that has answered one
   analyze request on a file outside the stream; returns the daemon,
   the files and that request. *)
let serve_setup a =
  let dir = Filename.concat a.out_dir (Printf.sprintf "serve-%d" a.seed) in
  mkdir_p dir;
  let write ~seed j =
    let path = Filename.concat dir (Printf.sprintf "t%d.fbas" j) in
    Fbqs.Fbas_io.to_file path
      (Fbqs.Topology.stellarbeat_like ~seed:(Inputs.op_seed ~seed (20_000 + j)) ());
    path
  in
  let warm_file = write ~seed:Inputs.warmup_seed Inputs.serve_files in
  let warm = J.to_string (J.Obj (Inputs.analyze_fields ~file:warm_file [ 0; 1; 2 ])) in
  let files = Array.init Inputs.serve_files (write ~seed:a.seed) in
  let d =
    Serve_mix.start ~exe:a.cli ~socket:(Filename.concat dir "sock")
      ~log:(Filename.concat dir "daemon.log")
  in
  Serve_mix.stopping_on_error d (fun () ->
      let c = Serve_mix.open_conn d.socket in
      ignore (Serve_mix.request c warm);
      Serve_mix.close_conn c);
  (d, files, warm)

(* ---- the traced run ----------------------------------------------------- *)

let per_layer =
  [
    ("fbqs.fbas_io.parse_ms", "ms");
    ("fbqs.enum.prepare_ms", "ms");
    ("fbqs.enum.minimal_quorums_ms", "ms");
    ("fbqs.enum.check_intersection_ms", "ms");
    ("fbqs.enum.blocking_sets_ms", "ms");
    ("fbqs.enum.despite_ms", "ms");
    ("fbqs.enum.explored", "count");
    ("fbqs.enum.prune_ratio", "ratio");
    ("simkit.exec.batches", "count");
    ("serve.api.payload_ms", "ms");
    ("obs.json.encode_ms", "ms");
    ("obs.json.bytes", "bytes");
    ("cup.sink_protocol.run_ms", "ms");
    ("cup.discovery_msgs", "count");
    ("cup.slice_builder.build_ms", "ms");
    ("scp.runner.run_ms", "ms");
    ("scp.consensus_msgs", "count");
    ("scp.quorum_checks", "count");
    ("scp.vblocking_checks", "count");
    ("fbqs.quorum.cache_hit_ratio", "ratio");
    ("simkit.engine.queue_depth_max", "count");
    ("stellar_cup.pipeline.sim_ticks", "ticks");
    ("stellar_cup.pipeline.unattributed_ms", "ms");
    ("cup.rbcast.relays", "count");
    ("cup.rbcast.deliveries", "count");
    ("cup.know_received", "count");
    ("cup.sink_replies", "count");
    ("simkit.engine.msgs_sent", "count");
    ("cup.us_per_msg", "us");
    ("simkit.engine.ns_per_msg", "ns");
    ("cup.self_ms", "ms");
    ("serve.cache_hit_p50_ms", "ms");
    ("serve.analyze_miss_p50_ms", "ms");
    ("serve.run_p50_ms", "ms");
    ("serve.run_trace_p50_ms", "ms");
    ("core.cache.serve_responses.hit_ratio", "ratio");
    ("core.cache.serve_files.hit_ratio", "ratio");
    ("core.cache.fbqs_quorum_compiled.hit_ratio", "ratio");
    ("simkit.exec.pool.batches", "count");
    ("serve.daemon.handle_line_ms", "ms");
    ("serve.transport_ms", "ms");
    ("serve.bytes_out", "bytes");
    ("trace.overhead_ms", "ms");
    ("trace.layer_gap_pct", "%");
  ]

(* What an operation's layer spans may leave uncovered: 5% of it, or
   50 us for operations so short that two clock reads matter. *)
let layer_slack = 0.05
let layer_slack_ms = 0.05

let gap_ok (dur, uncovered) =
  uncovered <= Float.max (layer_slack *. dur) (layer_slack_ms /. 1000.)

(* One traced pass over a group of layers: [samples] receives the
   per-layer figures, [sp] the spans, [untraced] the one-shot
   latencies (ms) of the same operations, [checks] their output
   checks. *)
type pass = {
  samples : S.t;
  sp : Span.t;
  mutable untraced : float list;
  mutable checks : bool list;
}

let new_pass () =
  let samples = S.create () in
  { samples; sp = Span.create samples; untraced = []; checks = [] }

let check p ok = p.checks <- ok :: p.checks

(* Each operation twice: one-shot and untraced, then staged with
   spans. The one-shot result must pass [ok] and the staged result
   must equal it. *)
let traced_ops p inputs ~one_shot ~staged ~ok =
  List.iter
    (fun inp ->
      let expect, dt = Measure.time (fun () -> one_shot inp) in
      p.untraced <- Measure.to_ms dt :: p.untraced;
      check p (ok inp expect && staged inp = expect))
    inputs

let trace_analyze p a ~n =
  let inputs = List.init n (Inputs.topology ~seed:a.seed) in
  ignore (Layers.analyze ~jobs:2 (Inputs.topology ~seed:Inputs.warmup_seed 0));
  traced_ops p inputs ~one_shot:(Layers.analyze ~jobs:2)
    ~staged:(Layers.analyze_staged p.sp p.samples ~jobs:2)
    ~ok:(fun _ _ -> true)

let trace_consensus p a ~n =
  let inputs = List.init n (Inputs.consensus ~seed:a.seed) in
  traced_ops p inputs ~one_shot:Layers.consensus
    ~staged:(Layers.consensus_staged p.sp p.samples)
    ~ok:(fun _ v -> Layers.consensus_ok v)

let trace_sink p a ~n ~ns_per_msg =
  let inputs = List.init n (Inputs.sink ~seed:a.seed) in
  (* The check's verdict and the answers as plain lists, so that
     structural equality between the two forms is exact. *)
  let outcome inp (r : Cup.Sink_protocol.run_result) =
    ( Layers.sink_ok inp r.answers,
      List.map
        (fun (i, (x : Cup.Sink_oracle.answer)) ->
          (i, x.in_sink, Graphkit.Pid.Set.elements x.view))
        (Graphkit.Pid.Map.bindings r.answers) )
  in
  traced_ops p inputs
    ~one_shot:(fun inp -> outcome inp (Layers.sink inp))
    ~staged:(fun inp -> outcome inp (Layers.sink_staged p.sp p.samples ~ns_per_msg inp))
    ~ok:(fun _ (ok, _) -> ok)

(* [path] looked up through nested objects of a daemon reply. *)
let rec lookup j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Serve_mix.field k j) (fun v -> lookup v rest)

let cache_ratio reply name =
  match
    ( lookup reply [ "payload"; "caches"; name; "hits" ],
      lookup reply [ "payload"; "caches"; name; "misses" ] )
  with
  | Some (J.Int h), Some (J.Int m) -> Layers.ratio h m
  | _ -> nan

(* The serve-mix probe: the two request streams against the live
   daemon, the daemon's own [stats] counters, then an in-process
   [Serve.Daemon.handle_line] replay of the same requests inside spans.
   The replay runs on a fresh daemon, answers the set-up request and
   then every request in the order it was sent to the live daemon, and
   comes before anything else in this process analyses these systems,
   so that each request finds the caches as cold or as warm as the live
   daemon did. [serve.transport_ms] is, over the traced runs (10 to
   16 MB of trace lines each, and always sent while no other request
   is in flight), the round trip minus the time the replay took to
   answer. *)
let trace_serve p a =
  let d, files, warm = serve_setup a in
  let streams, solo =
    Inputs.serve_streams ~seed:a.seed ~files serve_mix
  in
  let samples, stats =
    Fun.protect
      ~finally:(fun () -> Serve_mix.stop d)
      (fun () ->
        let samples = Serve_mix.drive d streams ~solo in
        (samples, Result.get_ok (J.of_string (Serve_mix.stats d))))
  in
  let add = S.add p.samples in
  let replay = Serve.Daemon.create ~jobs:1 () in
  ignore (Serve.Daemon.handle_line replay warm);
  List.iter
    (fun (s : Serve_mix.sample) ->
      let lines =
        Span.record p.sp "op" (fun () ->
            Span.record p.sp "serve.daemon.handle_line_ms" (fun () ->
                Serve.Daemon.handle_line replay s.req.line))
      in
      let handle_ms = List.hd (S.get p.samples "serve.daemon.handle_line_ms") in
      add "serve.bytes_out" (float_of_int s.reply.bytes);
      if s.req.kind = Inputs.Run_trace then begin
        add "serve.run_trace.lines" (float_of_int (s.reply.traces + 1));
        add "serve.run_trace.bytes" (float_of_int s.reply.bytes);
        add "serve.transport_ms" (Measure.to_ms s.latency_s -. handle_ms)
      end;
      (* The replay answers as the daemon did, [stats] apart. *)
      if s.req.kind <> Inputs.Stats then
        check p (List.nth lines (List.length lines - 1) = s.reply.response))
    (List.stable_sort
       (fun (x : Serve_mix.sample) y -> Float.compare x.sent y.sent)
       samples);
  List.iter (fun s -> check p (Serve_mix.check s)) samples;
  let p50 kind name =
    List.iter
      (fun (s : Serve_mix.sample) ->
        if s.req.kind = kind then add name (Measure.to_ms s.latency_s))
      samples
  in
  p50 Inputs.Hit "serve.cache_hit_p50_ms";
  p50 Inputs.Miss "serve.analyze_miss_p50_ms";
  p50 Inputs.Run "serve.run_p50_ms";
  p50 Inputs.Run_trace "serve.run_trace_p50_ms";
  List.iter
    (fun c -> add ("core.cache." ^ c ^ ".hit_ratio") (cache_ratio stats c))
    [ "serve_responses"; "serve_files"; "fbqs_quorum_compiled" ];
  match lookup stats [ "payload"; "pool"; "batches" ] with
  | Some (J.Int b) -> add "simkit.exec.pool.batches" (float_of_int b)
  | _ -> ()

(* Every traced run reports every per-layer metric. The workload's own
   operations give the metrics of the layers it exercises; short probes
   of the other workloads' operations, and of Algorithm 3 alone on the
   20-node graphs of the sink-detect shape, give the rest. *)
let traced a =
  let own = new_pass () in
  let probes = List.map (fun name -> (name, new_pass ())) [ "serve"; "consensus"; "sink"; "analyze" ] in
  let probe name = List.assoc name probes in
  let ns_per_msg = Layers.engine_ns_per_msg () in
  S.add own.samples "simkit.engine.ns_per_msg" ns_per_msg;
  let n rate = max 8 (ops a rate / 3) in
  (* The daemon starts before any domain exists: serve first. *)
  trace_serve (probe "serve") a;
  (match a.workload with
  | "consensus-sd" -> trace_consensus own a ~n:(n consensus_rate)
  | _ -> trace_consensus (probe "consensus") a ~n:3);
  trace_sink (probe "sink") a ~n:4 ~ns_per_msg;
  (match a.workload with
  | "analyze-live" -> trace_analyze own a ~n:(n analyze_rate)
  | _ -> trace_analyze (probe "analyze") a ~n:3);
  let spans_ms = S.get own.samples "op" in
  let gaps = Span.gaps own.sp ~root:"op" in
  let gap_ok = List.for_all gap_ok gaps in
  let gap_pct = List.map (fun (dur, gap) -> 100. *. gap /. dur) gaps in
  S.add own.samples "trace.overhead_ms"
    (Measure.median spans_ms -. Measure.median own.untraced);
  S.add own.samples "trace.layer_gap_pct" (Measure.median gap_pct);
  let value name =
    let has (_, p) = S.get p.samples name <> [] in
    match List.find_opt has (("own", own) :: probes) with
    | Some (src, p) -> (S.median p.samples name, src)
    | None -> (nan, "none")
  in
  let metrics, sources =
    List.split
      (List.map
         (fun (name, unit) ->
           let v, src = value name in
           ((name, v, unit), (name, J.String src)))
         per_layer)
  in
  mkdir_p a.out_dir;
  Out_channel.with_open_text
    (Filename.concat a.out_dir
       (Printf.sprintf "%s-%d.spans.jsonl" a.workload a.seed))
    (fun oc ->
      List.iter
        (fun (src, p) -> Span.to_channel oc ~source:src p.sp)
        (("own", own) :: probes));
  let checks =
    (gap_ok :: own.checks) @ List.concat_map (fun (_, p) -> p.checks) probes
  in
  let layer_json (l : Span.layer) =
    J.Obj
      [
        ("layer", J.String l.layer);
        ("calls", J.Int l.calls);
        ("total_ms", J.Float l.total_ms);
        ("self_ms", J.Float l.self_ms);
      ]
  in
  {
    attempted = List.length checks;
    failed = count_failed checks;
    metrics;
    detail =
      [
        ("layer_slack", J.Float layer_slack);
        ("layer_slack_ms", J.Float layer_slack_ms);
        ("layer_sum_ok", J.Bool gap_ok);
        ("layer_gap_max_pct", J.Float (List.fold_left Float.max 0. gap_pct));
        ("traced_op_p50_ms", J.Float (Measure.median spans_ms));
        ("untraced_op_p50_ms", J.Float (Measure.median own.untraced));
        ("layers", J.List (List.map layer_json (Span.layers own.sp)));
        ( "probe_layers",
          J.Obj
            (List.map
               (fun (src, p) -> (src, J.List (List.map layer_json (Span.layers p.sp))))
               probes) );
        ("sources", J.Obj sources);
        ( "run_trace_response",
          J.Obj
            (List.map
               (fun k -> (k, J.Float (fst (value ("serve.run_trace." ^ k)))))
               [ "lines"; "bytes" ]) );
      ];
  }

(* ---- main --------------------------------------------------------------- *)

let workloads = [ ("analyze-live", analyze_live); ("consensus-sd", consensus_sd) ]

let () =
  let a = parse_args () in
  let run =
    match List.assoc_opt a.workload workloads with
    | None ->
        prerr_endline ("unknown workload " ^ a.workload);
        exit 2
    | Some run -> run
  in
  if not (Sys.file_exists a.calibrator) then begin
    prerr_endline "--calibrator must name calibrate.exe";
    exit 2
  end;
  if a.trace && not (Sys.file_exists a.cli) then begin
    prerr_endline "traced runs need --cli, the stellar-cup executable";
    exit 2
  end;
  (* Like the daemon, the calibrator starts before any domain exists. *)
  Calib.start ~exe:a.calibrator;
  let o = Fun.protect ~finally:Calib.stop (fun () -> if a.trace then traced a else run a) in
  let metric (name, v, unit) =
    (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ])
  in
  let result =
    J.Obj
      [
        ("correct", J.Bool (o.failed = 0));
        ("attempted", J.Int o.attempted);
        ("failed", J.Int o.failed);
        ("metrics", J.Obj (List.map metric o.metrics));
      ]
  in
  let detail =
    [
      ("workload", J.String a.workload);
      ("seed", J.Int a.seed);
      ("seconds", J.Float a.seconds);
      ("trace", J.Bool a.trace);
      ( "host",
        J.Obj
          [
            ("nproc", J.Int (Domain.recommended_domain_count ()));
            ("ocaml", J.String Sys.ocaml_version);
            ("git_sha", J.String a.git_sha);
          ] );
    ]
    @ o.detail
  in
  mkdir_p a.out_dir;
  Out_channel.with_open_text
    (Filename.concat a.out_dir
       (Printf.sprintf "%s-%d-trace%d.json" a.workload a.seed
          (Bool.to_int a.trace)))
    (fun oc ->
      output_string oc
        (J.to_string (J.Obj [ ("detail", J.Obj detail); ("result", result) ]));
      output_char oc '\n');
  (* Per-operation latencies and calibration readings stay in the file. *)
  print_endline
    (J.to_string
       (J.Obj
          [
            ( "detail",
              J.Obj
                (List.filter
                   (fun (k, _) ->
                     not
                       (List.mem k
                          [ "op_raw_ms"; "op_before"; "calib_readings_ms"; "setup_raw_s" ]))
                   detail) );
          ]));
  print_endline (J.to_string result)
