(* One operation per workload, in two forms:

   - the one-shot call a user makes ([analyze], [consensus], [sink]),
     timed end to end by the untraced run;
   - the same operation staged through each layer's public functions,
     with a span around every layer call, for the traced run. The
     staged form must give the same result as the one-shot call.

   Per-layer figures go into a [Measure.Samples.t] under the metric
   names BENCHMARK.json lists, one sample per operation. *)

open Graphkit
module J = Obs.Json
module S = Measure.Samples

let counter reg name = float_of_int (Obs.Metrics.counter_value (Obs.Metrics.counter reg name))

let gauge_max reg name = Obs.Metrics.gauge_max (Obs.Metrics.gauge reg name)

let ratio hits misses =
  if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)

(* ---- analyze-live ------------------------------------------------------- *)

let parse text =
  match Fbqs.Fbas_io.of_string text with
  | Ok sys -> sys
  | Error e -> failwith ("fbas parse: " ^ e)

let analyze ~jobs (inp : Inputs.topology) =
  let sys = parse inp.text in
  let opts = Inputs.analysis_options ~jobs inp.despite in
  J.to_string (Serve.Api.analysis_payload opts (Serve.Api.analyze opts sys))

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The seed-1 default-shape topology, analysed as the CI analyzer gate
   does it, must reproduce the committed golden report byte for byte. *)
let golden_path = "test/fixtures/live_network.analysis.json"

let golden_matches ~jobs =
  let sys =
    parse (Fbqs.Fbas_io.to_string (Fbqs.Topology.stellarbeat_like ~seed:1 ()))
  in
  let opts =
    {
      Serve.Api.default_analysis_options with
      blocking = true;
      despite = [ [ 0; 1; 2 ] ];
      metrics = true;
      jobs;
    }
  in
  let report =
    Core.Report.envelope ~kind:"fbas-analysis"
      (Serve.Api.analysis_payload opts (Serve.Api.analyze opts sys))
  in
  J.to_string report ^ "\n" = read_file golden_path

let analyze_staged sp samples ~jobs (inp : Inputs.topology) =
  let span name f = Span.record sp name f in
  let batches0 = Simkit.Exec.Pool.batches () in
  let text, stats =
    span "op" (fun () ->
        let sys = span "fbqs.fbas_io.parse_ms" (fun () -> parse inp.text) in
        let opts = Inputs.analysis_options ~jobs inp.despite in
        let t = span "fbqs.enum.prepare_ms" (fun () -> Fbqs.Enum.prepare sys) in
        let minimal_quorums =
          span "fbqs.enum.minimal_quorums_ms" (fun () ->
              Fbqs.Enum.minimal_quorums ~jobs t)
        in
        let intersection =
          span "fbqs.enum.check_intersection_ms" (fun () ->
              Fbqs.Enum.check_intersection ~jobs t)
        in
        let top_tier =
          span "fbqs.enum.top_tier_ms" (fun () -> Fbqs.Enum.top_tier ~jobs t)
        in
        let blocking_sets =
          span "fbqs.enum.blocking_sets_ms" (fun () ->
              Some (Fbqs.Enum.minimal_blocking_sets ~jobs t))
        in
        let despite_checks =
          span "fbqs.enum.despite_ms" (fun () ->
              List.map
                (fun ids ->
                  let b = Pid.Set.of_list ids in
                  (b, Fbqs.Enum.quorum_intersection_despite ~jobs sys b))
                opts.despite)
        in
        let payload =
          span "serve.api.payload_ms" (fun () ->
              Serve.Api.analysis_payload opts
                {
                  Serve.Api.participants = Fbqs.Quorum.participants sys;
                  minimal_quorums;
                  top_tier;
                  intersection;
                  blocking_sets;
                  splitting_sets = None;
                  despite_checks;
                  search = Fbqs.Enum.stats t;
                  registry = None;
                })
        in
        let text = span "obs.json.encode_ms" (fun () -> J.to_string payload) in
        (text, Fbqs.Enum.stats t))
  in
  S.add samples "fbqs.enum.explored" (float_of_int stats.explored);
  S.add samples "fbqs.enum.prune_ratio"
    (float_of_int stats.pruned /. float_of_int (max 1 stats.explored));
  S.add samples "simkit.exec.batches"
    (float_of_int (Simkit.Exec.Pool.batches () - batches0));
  S.add samples "obs.json.bytes" (float_of_int (String.length text));
  text

(* ---- the simulator flood baseline --------------------------------------- *)

(* Nanoseconds per message of a bare [Engine] flood — 1000 sends from
   one node to another under a synchronous delay, with no trace sink —
   as the median over 200 floods. Measured in the same process as the
   protocol runs, so their per-message cost can be read as a ratio to
   it on any host. *)
let engine_ns_per_msg () =
  let reps = 200 and msgs = 1000 in
  let flood () =
    let eng =
      Simkit.Engine.create_cfg
        {
          Simkit.Run_config.default with
          delay = Some (Simkit.Delay.synchronous ~delta:1);
          max_time = 1_000_000;
        }
    in
    Simkit.Engine.add_node eng 1
      {
        Simkit.Engine.idle_behavior with
        on_start =
          (fun ctx ->
            for i = 1 to msgs do
              Simkit.Engine.send ctx 2 i
            done);
      };
    Simkit.Engine.add_node eng 2 Simkit.Engine.idle_behavior;
    let stats, dt = Measure.time (fun () -> Simkit.Engine.run eng) in
    if stats.messages_delivered <> msgs then failwith "engine flood lost messages";
    dt *. 1e9 /. float_of_int msgs
  in
  Measure.median (List.init reps (fun _ -> flood ()))

(* ---- sink-detect -------------------------------------------------------- *)

let seeded seed = Simkit.Run_config.with_seed seed Simkit.Run_config.default

let sink (s : Inputs.sink) =
  Cup.Sink_protocol.run_cfg ~cfg:(seeded s.s_seed) ~graph:s.s_graph ~f:s.s_f
    ~fault_of:(fun _ -> None)
    ()

(* Every correct process must return [V_sink] itself. *)
let sink_ok (s : Inputs.sink) answers =
  match Condensation.unique_sink s.s_graph with
  | None -> false
  | Some v_sink ->
      Pid.Set.for_all
        (fun i ->
          match Pid.Map.find_opt i answers with
          | Some (a : Cup.Sink_oracle.answer) -> Pid.Set.equal a.view v_sink
          | None -> false)
        (Digraph.vertices s.s_graph)

(* Algorithm 3 alone, with a metrics registry, timed by a span: the
   [cup.*] and engine figures of one sink detection. *)
let sink_staged sp samples ~ns_per_msg (s : Inputs.sink) =
  let reg = Obs.Metrics.create () in
  let cfg = { (seeded s.s_seed) with metrics = Some reg } in
  let r =
    Span.record sp "op" (fun () ->
        Span.record sp "cup.sink_detect.run_ms" (fun () ->
            Cup.Sink_protocol.run_cfg ~cfg ~graph:s.s_graph ~f:s.s_f
              ~fault_of:(fun _ -> None)
              ()))
  in
  let run_ms = List.hd (S.get samples "cup.sink_detect.run_ms") in
  let msgs = float_of_int r.stats.messages_sent in
  S.add samples "cup.rbcast.relays" (counter reg "rbcast_relays");
  S.add samples "cup.rbcast.deliveries" (counter reg "rbcast_deliveries");
  S.add samples "cup.know_received" (counter reg "cup_know_received");
  S.add samples "cup.sink_replies" (counter reg "cup_sink_replies");
  S.add samples "simkit.engine.msgs_sent" msgs;
  S.add samples "cup.us_per_msg" (run_ms *. 1000. /. msgs);
  S.add samples "cup.self_ms" (run_ms -. (msgs *. ns_per_msg /. 1e6));
  r

(* ---- consensus-sd: Corollary 2's stack ---------------------------------- *)

let initial_value_of i = Scp.Value.of_ints [ i ]

let consensus (c : Inputs.consensus) =
  Stellar_cup.Pipeline.scp_with_sink_detector ~cfg:(seeded c.c_seed)
    ~graph:c.graph ~f:c.f ~faulty:c.faulty ~initial_value_of ()

let consensus_ok (v : Stellar_cup.Pipeline.verdict) =
  v.all_decided && v.agreement && v.validity

(* [Pipeline.scp_with_sink_detector] spelled out stage by stage:
   Algorithm 3, then Algorithm 2 slices, then SCP at seed + 1. Each
   stage gets its own metrics registry; metrics never change a run. *)
let consensus_staged sp samples (c : Inputs.consensus) =
  let span name f = Span.record sp name f in
  let reg_cup = Obs.Metrics.create () and reg_scp = Obs.Metrics.create () in
  let cfg = seeded c.c_seed in
  let discovery, (o : Scp.Runner.outcome) =
    span "op" (fun () ->
        let fault_of i =
          if Pid.Set.mem i c.faulty then Some Cup.Sink_protocol.Silent else None
        in
        let discovery =
          span "cup.sink_protocol.run_ms" (fun () ->
              Cup.Sink_protocol.run_cfg
                ~cfg:{ cfg with metrics = Some reg_cup }
                ~graph:c.graph ~f:c.f ~fault_of ())
        in
        let system =
          span "cup.slice_builder.build_ms" (fun () ->
              Pid.Map.map
                (fun a -> Cup.Slice_builder.build_slices ~f:c.f a)
                discovery.answers)
        in
        let peers_of i =
          match Pid.Map.find_opt i discovery.answers with
          | Some (a : Cup.Sink_oracle.answer) -> a.view
          | None -> Digraph.succs c.graph i
        in
        let fault_of i =
          if Pid.Set.mem i c.faulty || not (Pid.Map.mem i discovery.answers)
          then Some Scp.Runner.Silent
          else None
        in
        let run =
          {
            (Simkit.Run_config.with_seed (c.c_seed + 1) cfg) with
            metrics = Some reg_scp;
          }
        in
        let o =
          span "scp.runner.run_ms" (fun () ->
              Scp.Runner.run_cfg
                ~cfg:{ Scp.Runner.default_cfg with run }
                ~system ~peers_of ~initial_value_of ~fault_of ())
        in
        (discovery, o))
  in
  let correct = Pid.Set.diff (Digraph.vertices c.graph) c.faulty in
  let verdict =
    {
      Stellar_cup.Pipeline.all_decided =
        o.all_decided
        && Pid.Set.for_all (fun i -> Pid.Map.mem i discovery.answers) correct;
      agreement = o.agreement;
      validity = o.validity;
      deciders = Pid.Map.cardinal o.decisions;
      discovery_msgs = discovery.stats.messages_sent;
      consensus_msgs = o.stats.messages_sent;
      total_time = discovery.stats.end_time + o.stats.end_time;
    }
  in
  let last name = List.hd (S.get samples name) in
  let stage_ms =
    last "cup.sink_protocol.run_ms"
    +. last "cup.slice_builder.build_ms"
    +. last "scp.runner.run_ms"
  in
  S.add samples "stellar_cup.pipeline.unattributed_ms" (last "op" -. stage_ms);
  S.add samples "stellar_cup.pipeline.sim_ticks" (float_of_int verdict.total_time);
  S.add samples "cup.discovery_msgs" (float_of_int verdict.discovery_msgs);
  S.add samples "scp.consensus_msgs" (float_of_int verdict.consensus_msgs);
  S.add samples "scp.quorum_checks" (counter reg_scp "scp_quorum_checks");
  S.add samples "scp.vblocking_checks" (counter reg_scp "scp_vblocking_checks");
  S.add samples "fbqs.quorum.cache_hit_ratio"
    (ratio
       (int_of_float (counter reg_scp "fbqs_cache_hits"))
       (int_of_float (counter reg_scp "fbqs_cache_misses")));
  S.add samples "simkit.engine.queue_depth_max"
    (float_of_int
       (max
          (gauge_max reg_cup "engine_queue_depth")
          (gauge_max reg_scp "engine_queue_depth")));
  verdict
