(** Real-time health: exact stall attribution, per-frame latency and
    deadline accounting, and the bottleneck report.

    The fold over {!Bp_sim.Sim.run}'s [state_observer] hook. The simulator
    emits one event per entered kernel state (busy, blocked-on-input,
    blocked-on-output, idle — exact by construction, see
    docs/OBSERVABILITY.md §"Real-time health"); this module accumulates
    them into per-kernel time breakdowns, joins [source_frame_births]
    against [sink_eofs] into per-frame end-to-end latencies checked
    against the source's declared period, compares channel occupancy
    high-watermarks to the compiled capacities, and ranks kernels by
    blocked time to name the binding channel — the contended edge that
    explains the rank-1 kernel's stalls.

    Usage:

    {[
      let h = Health.create ~graph () in
      let result =
        Sim.run ~state_observer:(Health.state_observer h)
          ~graph ~mapping ~machine ()
      in
      Health.finalize h ~result;
      Json.write_file ~path (Health.to_json h);
      Format.printf "%a" Health.pp_bottleneck h
    ]}

    Like all observers, health instrumentation is passive: a run's
    [Sim.result] is identical with and without it (asserted in
    [test/test_obs.ml]). *)

type t

val create : ?interval_limit:int -> graph:Bp_graph.Graph.t -> unit -> t
(** Every on-chip kernel is pre-registered (a kernel that never leaves
    [Ks_idle] still appears in the breakdown, fully idle).
    [interval_limit] (default 500_000) caps the per-kernel intervals kept
    for {!intervals} and the trace export; past it, interval retention
    stops for that kernel (time totals keep accumulating) and the drop is
    counted in the JSON snapshot. *)

val state_observer :
  t ->
  time_s:float ->
  node:Bp_graph.Graph.node ->
  proc:int ->
  state:Bp_sim.Sim.kernel_state ->
  chan:int option ->
  unit
(** Pass as [Sim.run ~state_observer], for a run of the graph given to
    {!create}. Off-chip nodes are ignored; a node id that graph does not
    have raises [Invalid_argument]. *)

val finalize : t -> result:Bp_sim.Sim.result -> unit -> unit
(** Close every kernel's open interval at [result.duration_s], join frame
    births to sink end-of-frame arrivals, and derive the metrics snapshot.
    Deadlines are anchored at each sink's first end-of-frame arrival
    [t0]: frame [k]'s deadline is [t0 + k·period·1.05], the 5% slack of
    {!Bp_sim.Sim.real_time_verdict}, where [period] is the declared frame
    period of the graph's first timed source; with no timed source,
    deadline accounting is skipped (latencies are still recorded). Call
    exactly once, after {!Bp_sim.Sim.run} returns. *)

(** {1 Reading} *)

type breakdown = {
  busy_s : float;  (** Time with a firing in flight. *)
  blocked_input_s : float;  (** Time declined waiting for input. *)
  blocked_output_s : float;  (** Time declined against a full output. *)
  idle_s : float;  (** Everything else (incl. waiting for a shared PE). *)
}

type interval = {
  iv_state : Bp_sim.Sim.kernel_state;
  iv_start : float;
  iv_end : float;
  iv_chan : int option;
      (** For blocked states, the culprit channel when known. *)
}

type frame = {
  f_index : int;  (** Frame number, from 0. *)
  f_birth_s : float;  (** Source emission of the frame's first pixel. *)
  f_arrival_s : float;  (** End-of-frame arrival at the sink. *)
  f_latency_s : float;  (** [arrival - birth]: end-to-end latency. *)
  f_deadline_s : float option;  (** Absent when no period is known. *)
  f_missed : bool;  (** [arrival > deadline]. *)
}

type bottleneck = {
  b_kernel : Bp_graph.Graph.node;  (** The most-blocked kernel. *)
  b_blocked_s : float;  (** Its total blocked time. *)
  b_chan : Bp_graph.Graph.channel option;
      (** The binding channel: the edge carrying the largest share of its
          blocked time (unattributed mid-window starvation has no
          channel). *)
  b_culprit : Bp_graph.Graph.node option;
      (** The other endpoint of the binding channel — the likely rate
          limiter. *)
  b_ranking : (Bp_graph.Graph.node * breakdown) list;
      (** All on-chip kernels, most blocked time first (ties broken by
          node id). *)
}

val metrics : t -> Metrics.t
(** The derived snapshot (names in docs/OBSERVABILITY.md §"Real-time
    health"): per-kernel [kernel.<name>.{busy,blocked_on_input,
    blocked_on_output,idle}_s], per-sink [sink.<name>.frame_latency_s] /
    [.frame_interval_s] histograms and [.deadline_misses] / [.frames]
    counters, [sim.deadline_misses], and per-channel [chan.<id>.hwm] /
    [.capacity] / [.hwm_frac]. Populated by {!finalize}. *)

val breakdown : t -> Bp_graph.Graph.node_id -> breakdown option
(** Per-kernel time totals; [None] for off-chip or unknown nodes. The
    four components sum to [result.duration_s] (the partition invariant,
    asserted in [test/test_obs.ml]). *)

val intervals : t -> (Bp_graph.Graph.node * int * interval list) list
(** Per on-chip kernel (in id order): its processor (-1 when it was never
    examined) and its state intervals in time order, contiguous from 0 to
    [duration_s]. *)

val frames : t -> (Bp_graph.Graph.node * frame list) list
(** Per sink (in id order), its frames in arrival order. Only frames
    whose birth was recorded by a timed source appear. *)

val deadline_misses : t -> int
(** Total missed deadlines across sinks. *)

val bottleneck : t -> bottleneck option
(** [None] when the graph has no on-chip kernels. A bottleneck with
    [b_blocked_s = 0.] means no stall was ever observed — the pipeline is
    source-limited, not kernel-limited. *)

val to_json : t -> Json.t
(** The health snapshot schema of docs/OBSERVABILITY.md: duration,
    deadline misses, per-kernel breakdowns, per-sink frames, channel
    high-watermarks vs capacity, and the bottleneck verdict. All arrays
    deterministically ordered (kernels/sinks by name, channels by id). *)

val pp_bottleneck : Format.formatter -> t -> unit
(** The human-readable bottleneck report behind [bpc report bottleneck]:
    kernels ranked by blocked time, the binding channel, and the likely
    rate limiter. *)
