(* Host time for every lidbench measurement: bechamel's CLOCK_MONOTONIC
   stub, in integer nanoseconds.  Unlike Unix.gettimeofday it never steps
   backwards, and unlike Sys.time it is wall time, not CPU time summed
   over domains. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Evaluated when the library initializes, before [main] runs: the
   closest a program gets to its own start, for [setup_s]. *)
let process_start_ns = now_ns ()

let s_of_ns ns = float_of_int ns /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)
