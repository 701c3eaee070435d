(** Simulation instrumentation: observers that feed a {!Metrics}
    registry and record channel-occupancy time series.

    Usage (see docs/OBSERVABILITY.md and docs/TUTORIAL.md §"Profiling"):

    {[
      let inst = Instrument.create ~graph () in
      let result =
        Sim.run
          ~observer:(Instrument.observer inst)
          ~channel_observer:(Instrument.channel_observer inst)
          ~graph ~mapping ~machine ()
      in
      Instrument.finalize inst ~result;
      Json.write_file ~path (Metrics.to_json (Instrument.metrics inst))
    ]}

    Instrumentation is passive: it never mutates simulation state, and a
    run's [Sim.result] is bit-identical with and without it (asserted in
    [test/test_obs.ml]). The exported counter names are the normative
    contract of docs/OBSERVABILITY.md; every on-chip kernel and every
    channel is registered so quiet components still appear (as zeros) in
    the snapshot.

    The observers count into arrays indexed by slots fixed at {!create},
    one per node and channel of its graph, and {!finalize} writes them
    into the registry: {!metrics} is complete only after {!finalize}. *)

type t

val create : ?sample_limit:int -> graph:Bp_graph.Graph.t -> unit -> t
(** Slots for every node and channel of [graph], which must be the graph
    the observed run simulates: the observers raise [Invalid_argument] on
    a node or channel id it does not have. [sample_limit] (default
    200_000) caps the per-channel occupancy samples kept for counter
    tracks; past it, sampling stops for that channel (aggregate counters
    keep counting) and [chan.<id>.samples_dropped] records how many were
    discarded. *)

val metrics : t -> Metrics.t
(** The registry. The observers' counters land in it at {!finalize};
    before that it holds only what callers wrote into it themselves. *)

val observer :
  t ->
  time_s:float ->
  proc:int ->
  node:Bp_graph.Graph.node ->
  method_name:string ->
  service_s:float ->
  unit
(** Pass as [Sim.run ~observer]. Feeds [kernel.<name>.fires],
    [kernel.<name>.service_s], [pe.<p>.fires], [pe.<p>.busy_s]. *)

val channel_observer :
  t ->
  time_s:float ->
  chan_id:int ->
  node:Bp_graph.Graph.node ->
  proc:int option ->
  event:Bp_sim.Sim.channel_event ->
  depth:int ->
  unit
(** Pass as [Sim.run ~channel_observer]. Feeds [chan.<id>.pushes],
    [chan.<id>.pops], [chan.<id>.blocks], [chan.<id>.max_depth],
    [kernel.<name>.blocks], and the occupancy time series behind
    {!channel_series}. *)

val compose :
  (time_s:float ->
  proc:int ->
  node:Bp_graph.Graph.node ->
  method_name:string ->
  service_s:float ->
  unit)
  list ->
  time_s:float ->
  proc:int ->
  node:Bp_graph.Graph.node ->
  method_name:string ->
  service_s:float ->
  unit
(** [compose obs] is a firing observer that fans each event out to every
    observer in [obs], in list order — the way to attach both the
    {!Bp_sim.Trace} recorder and {!observer} to one run:
    [Sim.run ~observer:(Instrument.compose [Trace.recorder tr; Instrument.observer inst])].
    Composing passive observers is passive. *)

val finalize : t -> result:Bp_sim.Sim.result -> unit
(** Write the observers' counters, histograms and high-water marks into
    {!metrics}, and derive the post-run metrics that need the whole
    result: [sim.duration_s], [sim.input_stalls], [sim.late_emissions],
    [sim.leftover_items], [sim.timed_out], and per-PE [pe.<p>.idle_s] and
    [pe.<p>.util]. Call exactly once, after {!Bp_sim.Sim.run} returns. *)

val channel_series : t -> (int * (float * int) list) list
(** Per channel id, the (time, depth-after-event) occupancy samples in
    time order — the source of the Chrome-trace counter tracks. Only
    pushes and pops produce samples (blocks do not change depth). *)

val channel_label : Bp_graph.Graph.t -> int -> string
(** ["src.port->dst.port"] for a channel id — how metrics' [chan.<id>.*]
    names map back to the graph. *)

val record_compile : Metrics.t -> Bp_compiler.Plan.t -> unit
(** Fold a compilation plan's pass timings and diagnostics into the
    registry, next to the simulation metrics: gauges
    [compile.pass.<name>.wall_s] and [compile.wall_s] (their sum),
    counters [compile.diag.info], [compile.diag.warning],
    [compile.diag.error] (pre-registered at zero). Names are part of the
    observability contract (docs/OBSERVABILITY.md). *)
