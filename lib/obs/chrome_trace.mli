(** Chrome [trace_event] export — load the result in Perfetto
    ({:https://ui.perfetto.dev}) or [chrome://tracing].

    Renders a recorded {!Bp_sim.Trace.t} as one track ("thread") per
    processor of complete events (["ph":"X"]) — one slice per kernel
    firing — plus, when an {!Instrument} is supplied, one counter track
    (["ph":"C"]) per channel with its queue occupancy over time, and, when
    compile pass timings are supplied, a second process with one slice per
    compiler pass. When a finalized {!Health} is supplied, each processor
    additionally gets a stall track (thread id [1000 + proc]) of colored
    spans — blocked-on-input vs blocked-on-output, with the culprit
    channel in [args] — and every frame becomes an async flow event
    (["ph":"b"]/["ph":"e"]) from its source birth to its sink
    end-of-frame, so per-frame latency is visible as a span. Timestamps
    are microseconds of *simulated* time (compiler passes: microseconds
    of wall time, on their own timeline starting at 0). The full schema
    is documented in docs/OBSERVABILITY.md. *)

val of_run :
  ?compile_passes:Bp_compiler.Pipeline.pass_timing list ->
  ?instrument:Instrument.t ->
  ?health:Health.t ->
  graph:Bp_graph.Graph.t ->
  trace:Bp_sim.Trace.t ->
  unit ->
  Json.t
(** The trace document: [{"traceEvents": [...], "displayTimeUnit": "ms"}]
    with events sorted by timestamp (metadata first). The simulation's
    process is named ["bp-sim"]. *)

val write_file : path:string -> Json.t -> unit
(** Alias of {!Json.write_file}, so callers need only this module. *)
