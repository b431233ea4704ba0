(* The calibration kernel, in a process of its own.

     calibrate.exe

   For every line read from standard input, times the kernel three
   times and writes the fastest time, in milliseconds, as one line on
   standard output. Exits at the end of its input. A line holding a
   CPU number first moves this process onto that CPU: the caller
   sends the CPU its own thread last ran on, so that the kernel meets
   the same neighbours on a shared host as the timed work did.

   The kernel uses nothing from the repository, and it runs in this
   separate process, so no change to the program under test — its
   code, its heap, its GC settings or its domains — can move it: a
   persistent integer map built and folded, which allocates and chases
   pointers like the simulator and the analyzer do. See calib.ml. *)

module IM = Map.Make (Int)

let kernel () =
  let m = ref IM.empty in
  for i = 0 to 8191 do
    m := IM.add ((i * 7919) land 16383) i !m
  done;
  ignore (Sys.opaque_identity (IM.fold (fun k v acc -> acc + (k lxor v)) !m 0))

external pin_to_cpu : int -> bool = "perfbench_pin_to_cpu" [@@noalloc]

let time_ms f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1000.

let () =
  try
    while true do
      Option.iter
        (fun cpu -> ignore (pin_to_cpu cpu))
        (int_of_string_opt (input_line stdin));
      let best = List.fold_left Float.min infinity (List.init 3 (fun _ -> time_ms kernel)) in
      Printf.printf "%.17g\n%!" best
    done
  with End_of_file -> ()
