(* The serve-mix request streams: the real [stellar-cup serve --socket]
   daemon driven by client connections from this process.

   The daemon is a child process started with [Unix.create_process]
   before this process creates any domain. Each connection is a
   systhread doing blocking socket IO, so load never exceeds the
   connection count. *)

module J = Obs.Json

type daemon = { pid : int; socket : string }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let open_conn socket =
  let fd = connect socket in
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Response and trace lines are envelopes that open with the same
   fields; only the kind tells them apart. *)
let trace_prefix =
  let full = J.to_string (Core.Report.envelope ~kind:"trace" (J.Obj [])) in
  let marker = {|"kind":"trace"|} in
  let rec find i =
    if String.sub full i (String.length marker) = marker then
      String.sub full 0 (i + String.length marker)
    else find (i + 1)
  in
  find 0

let is_trace line = String.starts_with ~prefix:trace_prefix line

type reply = {
  response : string;  (** the final response line *)
  traces : int;  (** trace lines before it *)
  bytes : int;  (** all lines, newlines included *)
}

let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  let rec read traces bytes =
    let l = input_line c.ic in
    let bytes = bytes + String.length l + 1 in
    if is_trace l then read (traces + 1) bytes
    else { response = l; traces; bytes }
  in
  read 0 0

let start ~exe ~socket ~log =
  if Sys.file_exists socket then Sys.remove socket;
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe
      [|
        exe;
        "serve";
        "--socket";
        socket;
        "--jobs";
        "1";
        "--max-clients";
        string_of_int Inputs.serve_connections;
      |]
      null err err
  in
  Unix.close null;
  Unix.close err;
  let deadline = Measure.now () +. 30. in
  let rec wait () =
    match open_conn socket with
    | c -> c
    | exception Unix.Unix_error _ when Measure.now () < deadline ->
        Unix.sleepf 0.002;
        wait ()
  in
  match wait () with
  | c ->
      ignore (request c {|{"id":0,"verb":"ping"}|});
      close_conn c;
      { pid; socket }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e

(* Asks the daemon to shut down and reaps it; kills it if it has not
   exited within ten seconds. *)
let stop d =
  (try
     let c = open_conn d.socket in
     ignore (request c {|{"id":0,"verb":"shutdown"}|});
     close_conn c
   with Unix.Unix_error _ | End_of_file | Sys_error _ -> ());
  let deadline = Measure.now () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Measure.now () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ()

(* [f ()], stopping the daemon if it raises. *)
let stopping_on_error d f =
  match f () with
  | v -> v
  | exception e ->
      stop d;
      raise e

(* ---- one request stream per connection ---------------------------------- *)

type sample = {
  req : Inputs.request;
  sent : float;  (** when the request was sent *)
  latency_s : float;  (** round trip, as the client sees it *)
  reply : reply;
}

let send c (req : Inputs.request) =
  let sent = Measure.now () in
  let reply, latency_s = Measure.time (fun () -> request c req.line) in
  { req; sent; latency_s; reply }

(* Runs the streams on concurrent connections, closed loop, one
   systhread per connection. Then connection [i] sends [solo]'s [i]-th
   request while the others wait, so those requests never overlap.
   Returns the samples. *)
let drive d streams ~solo =
  let conns = List.map (fun _ -> open_conn d.socket) streams in
  let outs = List.map (fun s -> Array.make (List.length s) None) streams in
  let client (c, reqs, out) =
    List.iteri (fun i req -> out.(i) <- Some (send c req)) reqs
  in
  List.iter Thread.join
    (List.map (Thread.create client)
       (List.map2 (fun (c, reqs) out -> (c, reqs, out)) (List.combine conns streams) outs));
  let concurrent =
    List.concat_map (fun out -> List.filter_map Fun.id (Array.to_list out)) outs
  in
  let alone = List.map2 send conns solo in
  List.iter close_conn conns;
  concurrent @ alone

let stats d =
  let c = open_conn d.socket in
  let r = request c {|{"id":0,"verb":"stats"}|} in
  close_conn c;
  r.response

(* ---- checking the responses --------------------------------------------- *)

let field name = function J.Obj l -> List.assoc_opt name l | _ -> None

let int_of = function Some (J.Int n) -> n | _ -> failwith "expected an int"

(* The payload an in-process [Serve.Api] call gives for a request, or
   [None] for [stats], whose counters reflect accumulated state. *)
let expected_payload =
  let systems = Hashtbl.create 8 in
  fun (r : Inputs.request) ->
    let f name = List.assoc_opt name r.fields in
    match r.kind with
    | Ping -> Some (J.to_string (J.Obj [ ("pong", J.Bool true) ]))
    | Stats -> None
    | Hit | Miss ->
        let file = match f "file" with Some (J.String s) -> s | _ -> assert false in
        let sys =
          match Hashtbl.find_opt systems file with
          | Some s -> s
          | None ->
              let s = Layers.parse (Layers.read_file file) in
              Hashtbl.replace systems file s;
              s
        in
        let despite =
          match f "despite" with
          | Some (J.List [ J.List l ]) -> List.map (fun j -> int_of (Some j)) l
          | _ -> assert false
        in
        (* Payloads are the same at every jobs count. *)
        let opts = Inputs.analysis_options ~jobs:2 ~cap:Inputs.serve_cap despite in
        Some (J.to_string (Serve.Api.analysis_payload opts (Serve.Api.analyze opts sys)))
    | Run | Run_trace ->
        let seed = int_of (f "seed") in
        let spec =
          {
            Serve.Api.kind = "random";
            seed;
            sink_size = int_of (f "sink_size");
            non_sink = int_of (f "non_sink");
            f = int_of (f "f");
          }
        in
        let faulty =
          match f "faulty" with
          | Some (J.List l) ->
              Graphkit.Pid.Set.of_list (List.map (fun j -> int_of (Some j)) l)
          | _ -> assert false
        in
        let verdict =
          Serve.Api.run_consensus
            ~cfg:(Simkit.Run_config.with_seed seed Simkit.Run_config.default)
            ~pipeline:"scp-sd" ~graph:(Serve.Api.build_graph spec) ~f:spec.f
            ~faulty ()
        in
        Some
          (J.to_string
             (Serve.Api.run_payload ~pipeline:"scp-sd" ~seed ~extra:[] verdict))

(* A response passes when it is [ok:true] for the request's id and its
   payload equals the in-process one; traced runs must also have
   streamed their trace lines. Expected payloads are computed once per
   distinct request. *)
let check =
  let memo = Hashtbl.create 64 in
  fun (s : sample) ->
    match J.of_string s.reply.response with
    | Error _ -> false
    | Ok env ->
        let id = field "id" (J.of_string s.req.line |> Result.get_ok) in
        let payload = field "payload" env in
        field "kind" env = Some (J.String "response")
        && field "ok" env = Some (J.Bool true)
        && field "id" env = id
        && (s.req.kind <> Run_trace || s.reply.traces > 0)
        &&
        let expected =
          match Hashtbl.find_opt memo s.req.key with
          | Some e -> e
          | None ->
              let e = expected_payload s.req in
              Hashtbl.replace memo s.req.key e;
              e
        in
        match (expected, payload) with
        | None, Some (J.Obj _ as p) -> field "requests" p <> None
        | Some e, Some p -> J.to_string p = e
        | _ -> false
