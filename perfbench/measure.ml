(* Clocks, order statistics and process readings for the benchmark.

   Wall-clock readings live here and nowhere in lib/: the benchmark is
   the edge that injects real time into otherwise deterministic runs. *)

let now = Unix.gettimeofday

let to_ms s = s *. 1000.

(* [time f] runs [f] and returns its result with the elapsed seconds. *)
let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type tail = { value : float; percentile : float; above : int }

(* Samples the tail percentile leaves above it. *)
let min_above = 10

(* The highest percentile that still has [min_above] samples above it:
   the sorted sample at rank [n - min_above] (1-based). A fixed sample
   count keeps the percentile fixed from run to run. With fewer than
   [min_above + 1] samples the maximum is reported, with [above] saying
   how many samples really lie above it. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { value = nan; percentile = nan; above = 0 }
  else
    let rank = if n > min_above then n - min_above else n in
    {
      value = a.(rank - 1);
      percentile = 100. *. float_of_int rank /. float_of_int n;
      above = n - rank;
    }

(* Peak resident set size (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
          ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let self_peak_rss_mb () = peak_rss_mb "self"

(* The CPU the calling thread last ran on: field 39 of
   /proc/thread-self/stat, counted from the fields after the
   parenthesised command name, which may hold spaces. *)
let current_cpu () =
  match In_channel.with_open_text "/proc/thread-self/stat" In_channel.input_all with
  | exception Sys_error _ -> None
  | stat -> (
      let after = String.rindex stat ')' + 2 in
      let fields = String.split_on_char ' ' (String.sub stat after (String.length stat - after)) in
      match List.nth_opt fields (39 - 3) with
      | Some f -> int_of_string_opt (String.trim f)
      | None -> None)

(* Per-name sample lists, reduced to medians at the end of a run. *)
module Samples = struct
  type t = (string, float list) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add (t : t) name v =
    Hashtbl.replace t name
      (v :: Option.value ~default:[] (Hashtbl.find_opt t name))

  let get (t : t) name = Option.value ~default:[] (Hashtbl.find_opt t name)

  let median t name = median (get t name)
end
