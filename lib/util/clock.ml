(* CLOCK_MONOTONIC, read through bechamel's stub: nanoseconds from an
   arbitrary origin that no system-clock step can move backwards. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let elapsed_s ~since = Float.max 0. (now_s () -. since)
