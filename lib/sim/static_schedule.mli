(** Kept only for [bpbench/bp_bench.ml:319–320], which reads
    [plan.Plan.schedule.recorded_firings] as the
    [schedule.recorded_firings] metric. No pass records a schedule, so
    the value is always 0. ROADMAP item 1, the next benchmark change,
    removes that read; this module goes with it. *)

type t = { recorded_firings : int }

val empty : t
(** [{ recorded_firings = 0 }], the [schedule] of every plan. *)
