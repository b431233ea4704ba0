(* Host-speed calibration.

   On a shared host the speed of one core drifts by tens of percent
   over seconds to minutes (a fixed loop was seen to take 56 to 91 ms
   within one minute, in CPU time as well as wall time). To make runs
   comparable, a fixed calibration kernel is timed between every two
   timed stretches of work, and each stretch's time is rescaled by
   [reference_ms] over the kernel's median time in the readings around
   it: the result is what the work would have taken on a host running
   the kernel in exactly [reference_ms]. The raw times are reported
   beside the scaled ones.

   The kernel runs in a separate process ([calibrate.exe]), started
   before this process creates any domain and with the OCaml runtime
   settings of the environment removed, so that it shares no heap, GC
   settings or domains with the program under test. This process waits
   for each reading, so the two never run at once, and the calibrator
   takes each reading on the CPU this process's main thread last ran
   on: the two vCPUs of a shared host can run at different speeds.
   Over five consensus-sd seeds at 10 s a run, the scaled run medians
   spread by 7.4% with the kernel wherever the scheduler put it, and by
   4.8% with both processes held on one CPU. *)

type calibrator = { pid : int; requests : out_channel; answers : in_channel }

let calibrator = ref None

let runtime_setting v =
  List.exists
    (fun prefix -> String.starts_with ~prefix v)
    [ "OCAMLRUNPARAM="; "CAMLRUNPARAM=" ]

(* Starts [exe], the calibrator. *)
let start ~exe =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let ans_r, ans_w = Unix.pipe ~cloexec:true () in
  let env =
    Array.of_list
      (List.filter
         (fun v -> not (runtime_setting v))
         (Array.to_list (Unix.environment ())))
  in
  let pid = Unix.create_process_env exe [| exe |] env req_r ans_w Unix.stderr in
  Unix.close req_r;
  Unix.close ans_w;
  calibrator :=
    Some
      {
        pid;
        requests = Unix.out_channel_of_descr req_w;
        answers = Unix.in_channel_of_descr ans_r;
      }

(* Ends the calibrator's input and waits for it to exit. *)
let stop () =
  match !calibrator with
  | None -> ()
  | Some c ->
      calibrator := None;
      close_out_noerr c.requests;
      ignore (Unix.waitpid [] c.pid);
      close_in_noerr c.answers

let readings = ref []  (* most recent first *)

(* One reading, in ms. Returns its index in the run's sequence of
   readings. *)
let sample () =
  let c =
    match !calibrator with Some c -> c | None -> failwith "the calibrator is not running"
  in
  output_string c.requests
    (match Measure.current_cpu () with Some cpu -> string_of_int cpu ^ "\n" | None -> "-\n");
  flush c.requests;
  readings := float_of_string (input_line c.answers) :: !readings;
  List.length !readings - 1

(* The kernel's time, in ms, on the reference host: a 2-core x86-64
   Linux VM running OCaml 5.1.1. *)
let reference_ms = 2.0

let median_reading () = Measure.median !readings

let window = 4

(* Scaled time per raw time for the stretch after reading [i]: from the
   median of the [2 * window] readings around it. *)
let local_factor i =
  let a = Array.of_list (List.rev !readings) in
  let n = Array.length a in
  let lo = max 0 (min (i - window + 1) (n - (2 * window))) in
  let hi = min (n - 1) (lo + (2 * window) - 1) in
  reference_ms /. Measure.median (Array.to_list (Array.sub a lo (hi - lo + 1)))

type timed = { raw_s : float; before : int }

(* [f] over a list, each call timed with a calibration reading before
   the first and after every call. *)
let map f xs =
  let before = ref (sample ()) in
  List.map
    (fun x ->
      let v, raw_s = Measure.time (fun () -> f x) in
      let t = { raw_s; before = !before } in
      before := sample ();
      (v, t))
    xs
