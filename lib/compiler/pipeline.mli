(** The end-to-end compilation pipeline.

    [compile] takes a raw application graph (Figure 1(b)) and a machine
    and drives the staged pass manager ({!Pass}) through the paper's
    sequence of automatic transformations, ending in a single {!Plan.t}
    artifact:

    + [validate] — structural sanity of the input graph;
    + [analyze-pre] — dataflow analysis of the raw graph (Section III-A);
    + [align] — repair alignment by trimming or padding (Section III-C,
      Figure 3); invariants: graph validity, no surviving misalignment;
    + [buffering] — insert buffers (Section III-B, Figure 3); invariants:
      graph validity, no unbuffered channel, no misalignment introduced;
    + [parallelize] — replicate kernels and split buffers to meet the
      input rate (Section IV, Figure 4); invariant: graph validity;
    + [analyze-post] — re-analysis of the elaborated graph (rate
      consistency is implied by the analysis succeeding); invariants: no
      misalignment, no unbuffered channel;
    + [schedulability] — the static a-priori utilization argument
      (Section IV); an unschedulable prediction is a warning diagnostic,
      not a failure — the simulator arbitrates;
    + [map] — both kernel-to-processor mappings (Section V): 1:1 and
      greedy multiplexed; a greedy overflow of the machine's PE budget is
      recorded, not raised;
    + [schedule] — quasi-static schedule recovery: an untimed functional
      execution of the elaborated graph records each kernel's firing
      sequence, segments it at end-of-frame boundaries into a prelude
      and a steady-state period, and partitions the graph into static
      regions ({!Bp_sim.Static_schedule}); invariant: the regions
      partition the node set exactly. The artifact feeds the
      simulator's table-match telemetry and [--dump-after schedule].

    Passes 1–8 are the sizing prefix: they alone decide the PE counts
    and the schedulability verdict, and {!size} runs just them.

    No pass places: as in the paper, which kept its annealer out of the
    flow (Section IV-D), {!Plan.placement} anneals on demand.

    Each pass is timed with the monotonic clock and checked by its
    post-invariants at the pass barrier — see {!Pass}. Failures carry
    the failing pass's name and leave partial timings and an error
    diagnostic behind. *)

type pass_timing = Pass.timing = {
  pass : string;
      (** Pass name: ["validate" | "analyze-pre" | "align" | "buffering" |
          "parallelize" | "analyze-post" | "schedulability" | "map" |
          "schedule"], in execution order. *)
  wall_s : float;  (** Monotonic wall seconds spent in the pass. *)
  nodes_before : int;
  nodes_after : int;
  channels_before : int;
  channels_after : int;
}
(** Re-export of {!Pass.timing} for callers of the historical API. *)

type t = Plan.t = {
  graph : Bp_graph.Graph.t;
  machine : Bp_machine.Machine.t;
  repairs : Bp_transform.Align.repair list;
  buffers : Bp_transform.Buffering.inserted list;
  decisions : Bp_transform.Parallelize.decision list;
  analysis : Bp_analysis.Dataflow.t;
  schedulability : Bp_transform.Schedulability.t;
  one_to_one : Plan.mapped;
  greedy : (Plan.mapped, Bp_util.Err.t) result;
  greedy_groups : Bp_graph.Graph.node_id list list;
  schedule : Bp_sim.Static_schedule.t;
  diagnostics : Bp_util.Diag.t list;
  timings : Pass.timing list;
}
(** Re-export of {!Plan.t}: the compiler's result IS the plan. *)

val compile :
  ?align_policy:Bp_transform.Align.policy ->
  ?diags:Bp_util.Diag.buffer ->
  ?after_pass:(pass:string -> Bp_graph.Graph.t -> unit) ->
  machine:Bp_machine.Machine.t ->
  Bp_graph.Graph.t ->
  t
(** Compile in place. Fails with the transform errors documented in
    [Bp_transform], wrapped with the failing pass's name. [diags]
    (default: a fresh buffer) accumulates diagnostics; supply your own
    to inspect them after a failed compile — the buffer then also holds
    an error entry naming the pass that failed. [after_pass] is invoked
    with the graph after every successful pass barrier — the
    [bpc compile --dump-after] hook. *)

(** {1 Sizing without a plan} *)

type sizing = {
  one_to_one_pes : int;  (** Processors the 1:1 mapping wants. *)
  greedy_pes : int;
      (** Processors the greedy mapping wants, regardless of the
          machine bound. *)
  schedulability : Bp_transform.Schedulability.t;
      (** The static a-priori argument (Section IV). *)
}
(** What a rate probe reads: the two PE counts {!Plan.processors_needed}
    would report and the plan's schedulability report. *)

val size :
  ?align_policy:Bp_transform.Align.policy ->
  machine:Bp_machine.Machine.t ->
  Bp_graph.Graph.t ->
  sizing
(** [size ~machine g] runs only the sizing prefix, passes 1–8
    ([validate] … [map]), in place on [g], and skips [schedule]. The
    prefix is the same pass list [compile] starts with and runs through
    the same {!Pass.run_all} barrier, so its invariants, error classes
    and pass-name wrapping are those of [compile]; a graph on which
    [compile] would fail within the first eight passes fails here with
    the same {!Bp_util.Err.t}. This is the probe {!Rate_search} runs at
    each rate. *)

(** {1 Rendering} *)

val pp_summary : Format.formatter -> t -> unit
(** Alias of {!Plan.pp_summary}. *)

val pp_passes : Format.formatter -> t -> unit
(** Alias of {!Plan.pp_timings}: the per-pass timing table. *)
