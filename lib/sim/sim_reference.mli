(** The original polling simulation engine, kept as a reference.

    This is the seed implementation of {!Sim.run}, frozen: Queue-backed
    channels, a full rescan of every processor to fixpoint after each
    event, and fixed retry polls for blocked sources (quarter-period) and
    constant sources (1 µs). The event-driven engine in {!Sim} must agree
    with it bit-exactly on every application that never blocks an emitter
    — the suite-wide differential test in [test/test_differential.ml]
    holds the two together. Use {!Sim.run} everywhere else; this module
    exists only to be compared against. *)

val run :
  graph:Bp_graph.Graph.t ->
  mapping:Mapping.t ->
  machine:Bp_machine.Machine.t ->
  unit ->
  Sim.result
(** Same contract as {!Sim.run} with its defaults — no NoC placement, no
    observers, the same runaway guards — original engine.
    [events_processed] counts this engine's own (polling) events, so it
    will generally differ from the event-driven engine's count even when
    every other field matches. *)
