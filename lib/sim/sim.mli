(** The timing-accurate functional simulator.

    This is the evaluation substrate of the paper: a discrete-event
    simulation that accounts for kernel execution time, channel read/write
    (data access) time, buffer transfers, and processor scheduling — but not
    placement or wire delay, which the paper argues do not affect a
    throughput-constrained pipeline (Section IV-D). It is simultaneously
    *functional*: kernels move and compute real pixel data, so a run's
    outputs can be checked against reference image operations.

    The engine is event-driven (see docs/PERFORMANCE.md): channels are
    preallocated ring buffers that know their producer and consumer, and
    a push, pop, or processor release re-examines only the parties it may
    have unblocked, instead of rescanning every processor to a fixpoint
    after each event. Because kernel [try_step]s are failure-pure, the
    skipped scans are ones that would deterministically decline. When
    no observer is attached, the engine also elides end-of-service
    wakes that its kernels' [starved] oracles prove would decline. The
    original full-rescan engine is preserved in {!Sim_reference}, and a
    suite-wide differential test keeps the two in exact agreement on
    every application whose emitters never block.

    Model:
    - every on-chip kernel instance is assigned to a processor by a
      {!Mapping.t}; kernels sharing a processor are time-multiplexed
      (round-robin among ready kernels, with an optional context-switch
      charge);
    - optionally, a {!placement} adds network-on-chip delay: writes across
      distinct processors cost extra cycles proportional to the Manhattan
      hop distance between their tiles. The paper omits this (Section
      IV-D, arguing throughput is unaffected); supplying it here lets the
      claim be tested rather than assumed;
    - one firing occupies the processor for
      [read_words·t_read + cycles·t_cycle + written_words·t_write];
    - channels are bounded FIFOs; a kernel only fires when its outputs have
      room, so backpressure propagates upstream;
    - sources emit on the rigid schedule of their input rate; an emission
      that finds its channel full is recorded as a late emission — the
      real-time constraint is violated;
    - sinks and sources are off-chip and consume no processor time. *)

type proc_stats = {
  run_s : float;  (** Time executing kernel methods. *)
  read_s : float;  (** Time reading inputs. *)
  write_s : float;  (** Time writing outputs. *)
  fires : int;
}

type node_stats = { node_fires : int; node_busy_s : float }

type result = {
  duration_s : float;  (** Time of the last event. *)
  procs : proc_stats array;
  input_stalls : int;
      (** Scheduled source emissions that found insufficient space for
          the source's declared {!Bp_kernel.Spec.emission_burst} — one
          per missed slot (the stalled pixel is emitted the instant space
          frees, without retry polling). *)
  late_emissions : int;
      (** Pixels that could not be emitted at their scheduled time. *)
  max_input_lateness_s : float;
  sink_eofs : (Bp_graph.Graph.node_id * float list) list;
      (** Per sink, the times its end-of-frame tokens arrived. *)
  sink_first_data : (Bp_graph.Graph.node_id * float) list;
      (** Per sink, when its first data chunk arrived — the first-output
          latency the paper notes is the only thing placement affects
          (Section IV-D). *)
  source_frame_births : (Bp_graph.Graph.node_id * float list) list;
      (** Per timed source, the emission time of each frame's first data
          item, in frame order — the birth tag that, joined with
          [sink_eofs], gives per-frame end-to-end latency (the fold lives
          in [Bp_obs.Health]). *)
  node_stats : (Bp_graph.Graph.node_id * node_stats) list;
  channel_depths : (int * int) list;
      (** Per channel (by id), the highest queue occupancy observed —
          validates the sizing rules: a well-provisioned run never presses
          a channel to its capacity for long. *)
  leftover_channels : (int * int * Bp_kernel.Item.t) list;
      (** Channels still holding items at quiescence: id, count, and the
          stuck front item — the raw material of a deadlock diagnosis. *)
  leftover_items : int;
      (** Items still queued when the simulation went quiet — nonzero means
          the graph deadlocked or was cut short by [max_time_s]. A
          deadlocked graph quiesces as soon as its last event drains
          (with [timed_out = false]) rather than polling until the time
          limit. *)
  events_processed : int;
      (** Heap events the event-driven engine dispatches for this run —
          the denominator of the events-per-second throughput the
          benchmark tracks. Wake elision dispatches fewer (it skips
          provably-declining wakes wholesale) but counts each elided
          wake here, so the field is bit-identical between an observed
          and an unobserved run; the skipped share is
          [static_elided_events]. At most [max_events + 1] (see {!run}). *)
  timed_out : bool;
  pool : Bp_image.Pool.stats option;
      (** Chunk-pool counters for the run's data plane ([None] when the
          result came from the allocation-naive reference engine). The
          hit rate is the fraction of chunk acquisitions served by
          recycling. *)
  static_fired : int;
      (** Always 0: no firing table exists to match. Kept only because
          [bpbench/bp_bench.ml:316] reads it for the
          [sim.static_coverage] metric; ROADMAP item 1 removes the read. *)
  static_indexed_fired : int;
      (** Always 0: every firing goes through the kernel's [try_step].
          Kept only because [bpbench/bp_bench.ml:317] reads it for the
          [sim.indexed_share] metric; ROADMAP item 1 removes the read. *)
  static_fallback_events : int;
      (** Always 0: no firing table exists to desync from. Kept only
          because [bpbench/bp_bench.ml:318] reads it as the
          [sim.fallback_events] metric and [:341] fails an op on a
          nonzero value; ROADMAP item 1 removes both reads. *)
  static_elided_events : int;
      (** End-of-service wakes elided for good by wake elision: each is
          exactly one event-driven dispatch that would have declined.
          Included in [events_processed]; 0 under observation, which
          keeps the engine event-driven. Read by
          [bpbench/bp_bench.ml:313–314], so the name stays. *)
}

type placement_model = {
  tile_of_proc : int -> int * int;
      (** Mesh tile of each processor (e.g. from [Bp_placement]). *)
  hop_cycles_per_word : float;  (** Extra write cycles per word per hop. *)
}

(** What just happened on a channel — the events behind the
    [channel_observer] hook (see docs/OBSERVABILITY.md for the normative
    contract):
    - [Ch_push]: one item was appended by the firing kernel (one event per
      fan-out copy);
    - [Ch_pop]: one item was removed by the firing kernel;
    - [Ch_block]: a kernel's output-space guard found this channel full —
      the firing could not proceed through it. Emitted per guard
      evaluation; the event-driven scheduler only re-evaluates guards
      whose channels changed, so a persistently blocked kernel reports
      one event per genuine re-attempt, not one per polling interval. *)
type channel_event = Ch_push | Ch_pop | Ch_block

(** What a kernel is doing, as of the dispatcher's last examination — the
    states behind the [state_observer] hook (see docs/OBSERVABILITY.md
    §"Real-time health" for the normative contract):
    - [Ks_busy]: a firing is in flight; the interval is exactly
      [(start, start + service)].
    - [Ks_blocked_output]: the last attempt declined after its output-space
      guard found a channel full (the culprit channel id rides along).
    - [Ks_blocked_input]: the last attempt declined without touching a full
      output — the kernel wants more input (the first empty input channel
      rides along when one exists; a kernel mid-window may be starved with
      no input empty).
    - [Ks_idle]: not running and not observed blocked: the settled state
      after a firing until the next examination, which covers both waiting
      for a shared PE and end-of-run quiescence.

    Transitions fire only at scheduling events, but they are exact, not
    sampled: between two examinations no adjacent channel changed (the
    event-driven core's invariant), so the held state is what any finer
    probe would have seen. *)
type kernel_state = Ks_busy | Ks_blocked_input | Ks_blocked_output | Ks_idle

val kernel_state_name : kernel_state -> string
(** ["busy" | "blocked-on-input" | "blocked-on-output" | "idle"] — the
    spelling the health snapshot and trace export use. *)

val run :
  ?max_time_s:float ->
  ?max_events:int ->
  ?chunk_pool:Bp_image.Pool.t ->
  ?placement:placement_model ->
  ?observer:
    (time_s:float ->
    proc:int ->
    node:Bp_graph.Graph.node ->
    method_name:string ->
    service_s:float ->
    unit) ->
  ?channel_observer:
    (time_s:float ->
    chan_id:int ->
    node:Bp_graph.Graph.node ->
    proc:int option ->
    event:channel_event ->
    depth:int ->
    unit) ->
  ?state_observer:
    (time_s:float ->
    node:Bp_graph.Graph.node ->
    proc:int ->
    state:kernel_state ->
    chan:int option ->
    unit) ->
  graph:Bp_graph.Graph.t ->
  mapping:Mapping.t ->
  machine:Bp_machine.Machine.t ->
  unit ->
  result
(** Simulate until quiescent. [max_time_s] (default 300 simulated seconds)
    and [max_events] (default 50 million) bound runaway graphs; hitting
    either sets [timed_out]. They stay options, though no program passes
    them, because they are the engine's runaway guards and tests reach
    the cut path cheaply only by lowering them. [max_events] counts
    elided wakes too, so a run is cut at the same event count, and
    reports [timed_out] alike, with and without an observer.

    The data plane runs through a per-run chunk pool ({!Bp_image.Pool}):
    behaviours acquire output chunks and release consumed inputs, so
    steady state recycles a fixed working set instead of allocating per
    firing. The allocation-naive oracle is {!Sim_reference}.
    [chunk_pool] lends an existing pool instead of creating one: the
    per-domain reuse path of docs/PARALLELISM.md, where a sweep worker
    owns one pool and threads it through every run it executes, keeping
    free lists warm across runs. The lender keeps ownership;
    [result.pool] then reports this run's {e deltas} (its
    hit/miss/release contribution), and simulated outcomes remain
    bit-identical either way — acquired buffers are always all-zero. A
    pool must never be lent to two concurrently running simulations
    ({!Bp_image.Pool} is not domain-safe; one owner domain at a time).

    [observer] is invoked for every on-chip kernel firing with its start
    time, processor, and service time — the hook the {!Trace} module
    records through. [channel_observer] is invoked on every
    channel push/pop/full-guard event with the acting node, its processor
    ([None] for off-chip sources and sinks), and the queue depth *after*
    the event — the hook [Bp_obs.Instrument] feeds metrics and occupancy
    counter tracks from. [state_observer] is invoked once per entered
    {!kernel_state} of each on-chip kernel, with the entry time and, for
    blocked states, the culprit channel; every kernel starts [Ks_idle] at
    time 0 (no call is made for the initial state) and the emitted
    transitions partition [[0, duration_s]] exactly — the hook
    [Bp_obs.Health] folds breakdowns and the bottleneck report from. All
    hooks default to no-ops and must not mutate simulation state; a run's
    [result] is identical with and without them (asserted in
    [test/test_obs.ml]).

    Wake elision runs exactly when no observer is installed: a
    processor whose kernels' [starved] oracles all prove the next
    attempt would decline at fire time elides its end-of-service wake
    event (restored, at the exact time and heap rank of the
    event-driven push, by the first adjacent channel change that breaks
    the proof). Every firing still goes through [try_step]; elision
    removes only examinations that would deterministically decline, so
    every simulated outcome of a run that finishes — floats included,
    [events_processed] included (elided wakes count as processed) — is
    bit-identical to the same run with an observer attached; only
    [static_elided_events] differs. Observers keep the engine fully
    event-driven because they report examinations themselves; a no-op
    [observer] is therefore the event-driven A/B baseline. See
    docs/PERFORMANCE.md §"Quasi-static execution". *)

val utilization : result -> proc:int -> float
(** [(run+read+write) / duration] for one processor. *)

val average_utilization : result -> float
(** Mean utilization across processors (Figure 13's metric). *)

val first_output_latency_s : result -> float option
(** Earliest first-data arrival across sinks, if any data arrived. *)

val utilization_breakdown : result -> float * float * float
(** Aggregate (run, read, write) fractions of total processor-seconds,
    each relative to [procs × duration]. *)

type verdict = {
  met : bool;
  frames_delivered : int;
  mean_frame_interval_s : float;
  worst_frame_interval_s : float;
}

val real_time_verdict :
  result -> expected_frames:int -> period_s:float -> ?allowed_leftover:int ->
  unit -> verdict
(** Did the run meet its real-time constraint? True when no emission was
    late, every sink delivered [expected_frames] end-of-frames, at most
    [allowed_leftover] items were left queued (default 0 — feedback loops
    legitimately keep their last value circulating), and steady-state frame
    intervals stayed within [period · 1.05]. *)

val pp_result : Format.formatter -> result -> unit

val pp_stuck : Bp_graph.Graph.t -> Format.formatter -> result -> unit
(** Render the leftover channels with kernel and port names — call this
    when [leftover_items > 0] to see where a graph wedged and on what
    (a lone token on one input of a matched-token kernel is the classic
    misalignment signature). *)
