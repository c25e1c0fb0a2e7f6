(* Monotonic nanosecond clock (CLOCK_MONOTONIC through bechamel's stub):
   serve-hot hits take tens of microseconds, below what a microsecond
   wall clock resolves. *)

let now_ns () = Monotonic_clock.now ()

let ns_between a b = Int64.to_float (Int64.sub b a)

let since_s t0 = ns_between t0 (now_ns ()) /. 1e9
