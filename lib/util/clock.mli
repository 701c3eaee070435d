(** Monotonic timestamps for measuring elapsed wall time.

    [Unix.gettimeofday] follows the system clock, which NTP may step
    backwards; naive [t1 -. t0] differences can then go negative, which
    poisons timing tables and trace exports. This module reads
    [CLOCK_MONOTONIC] instead (bechamel's [Monotonic_clock] stub, in
    nanoseconds), which never steps and is shared by every domain, so
    readings taken on different {!Domain_pool} workers never order
    backwards either.

    All compile-pass timings ({!Bp_compiler.Pass}) and all
    {!Domain_pool} task timings read this clock. *)

val now_s : unit -> float
(** The current time in seconds from an arbitrary fixed origin (not the
    Unix epoch). Non-decreasing across calls within the process. *)

val elapsed_s : since:float -> float
(** [elapsed_s ~since] is [now_s () -. since], clamped to be
    non-negative (defensive: with [since] from {!now_s} the clamp never
    engages). *)
