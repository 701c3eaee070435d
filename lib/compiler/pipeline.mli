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
      recorded, not raised.

    As in the paper, the compiler ends at mapping. No pass places: the
    paper kept its annealer out of the flow (Section IV-D), so
    {!Plan.placement} anneals on demand. No pass schedules either: the
    simulator's wake elision needs only the kernels' [starved] oracles
    (see {!Bp_sim.Sim.run}).

    Each pass is timed with the monotonic clock and checked by its
    post-invariants at the pass barrier — see {!Pass}. Failures carry
    the failing pass's name and leave partial timings and an error
    diagnostic behind. *)

type pass_timing = Pass.timing = {
  pass : string;
      (** Pass name: ["validate" | "analyze-pre" | "align" | "buffering" |
          "parallelize" | "analyze-post" | "schedulability" | "map"], in
          execution order. *)
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
  schedule : Bp_sim.Static_schedule.t;  (** Always empty; see {!Plan.t}. *)
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
    [bpc compile --dump-after] hook. {!Rate_search} compiles each probe
    through this same entry point. *)

(** {1 Rendering} *)

val pp_summary : Format.formatter -> t -> unit
(** Alias of {!Plan.pp_summary}. *)

val pp_passes : Format.formatter -> t -> unit
(** Alias of {!Plan.pp_timings}: the per-pass timing table. *)
