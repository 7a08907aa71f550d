(** Monotonic nanoseconds.  [Unix.gettimeofday] can step under NTP, which
    would corrupt both latencies and the open-loop schedule. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
