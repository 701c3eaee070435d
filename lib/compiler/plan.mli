(** The compilation plan — the single artifact of the compiler.

    [Pipeline.compile] drives the staged pass manager ({!Pass}) through
    the paper's whole flow — dataflow analysis, alignment repair,
    buffering, parallelization, schedulability and mapping/multiplexing
    (Sections III–V) — and lands everything in one [Plan.t]: the
    elaborated graph, the machine, both mappings, the a-priori
    schedulability verdict, the structural by-products of every
    transform, the accumulated diagnostics and the per-pass timings.
    Downstream consumers ([bpc simulate], [bpc report], {!Bp_obs}) read
    the plan instead of re-deriving any of it.

    Placement is not part of the flow: as in the paper, which kept its
    annealer out of the compiler because placement does not change
    throughput (Section IV-D), {!placement} anneals on demand.

    {!run_plan} is the execution entry that consumes a plan (re-exported
    as [Sim.run_plan] by the [Block_parallel] façade). *)

type policy = One_to_one | Greedy
(** The kernel-to-processor mapping policy (Section V): one PE per
    on-chip kernel, or greedy time-multiplexing. *)

val policy_name : policy -> string
(** ["1:1" | "greedy"]. *)

type mapped = {
  groups : Bp_graph.Graph.node_id list list;
      (** Kernels per processor, in processor order. *)
  mapping : Bp_sim.Mapping.t;
}
(** A mapping policy's realized artifacts. *)

type t = {
  graph : Bp_graph.Graph.t;  (** The elaborated graph (mutated in place). *)
  machine : Bp_machine.Machine.t;
  repairs : Bp_transform.Align.repair list;
  buffers : Bp_transform.Buffering.inserted list;
  decisions : Bp_transform.Parallelize.decision list;
  analysis : Bp_analysis.Dataflow.t;  (** Of the elaborated graph. *)
  schedulability : Bp_transform.Schedulability.t;
      (** The static a-priori argument (Section IV). *)
  one_to_one : mapped;
  greedy : (mapped, Bp_util.Err.t) result;
      (** [Error] when even the merged mapping needs more processors
          than the machine has; compilation itself still succeeds (the
          1:1 path may be viable on a bigger machine) and the overflow
          is recorded as a warning diagnostic. *)
  greedy_groups : Bp_graph.Graph.node_id list list;
      (** The greedy grouping itself, present even on overflow — the
          processor-count query must not depend on the machine bound. *)
  schedule : Bp_sim.Static_schedule.t;
      (** Always {!Bp_sim.Static_schedule.empty}: no pass records a
          schedule. Kept only because [bpbench/bp_bench.ml:319–320]
          reads [schedule.recorded_firings]; ROADMAP item 1 removes the
          read, and the field goes with it. *)
  diagnostics : Bp_util.Diag.t list;  (** In emission order. *)
  timings : Pass.timing list;  (** In execution order. *)
}

(** {1 Reading the plan} *)

val mapped : t -> policy:policy -> mapped
(** The realized mapping for a policy. For [Greedy] on an overflowed
    machine this raises the recorded {!Bp_util.Err.Resource_exhausted}. *)

val mapping : t -> policy:policy -> Bp_sim.Mapping.t

val placement : t -> policy:policy -> Bp_placement.Placement.placement
(** [placement t ~policy] anneals a mesh placement of the policy's
    mapping: {!Bp_placement.Placement.place} over [t.analysis], computed
    afresh on every call. The annealer is seeded, so every call returns
    the same placement. Raises like {!mapped}. *)

val processors_needed : t -> policy:policy -> int
(** Processors the policy wants, regardless of the machine bound. *)

val errors : t -> Bp_util.Diag.t list
(** The error-severity diagnostics (empty on any plan [compile]
    returned; a failed compile never returns a plan). *)

(** {1 Executing the plan} *)

val run_plan :
  ?max_time_s:float ->
  ?max_events:int ->
  ?chunk_pool:Bp_image.Pool.t ->
  ?elide:bool ->
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
    event:Bp_sim.Sim.channel_event ->
    depth:int ->
    unit) ->
  ?state_observer:
    (time_s:float ->
    node:Bp_graph.Graph.node ->
    proc:int ->
    state:Bp_sim.Sim.kernel_state ->
    chan:int option ->
    unit) ->
  policy:policy ->
  t ->
  unit ->
  Bp_sim.Sim.result
(** Simulate the plan under the chosen mapping policy — the plan-driven
    twin of {!Bp_sim.Sim.run}, which it parameterizes entirely from the
    plan: graph, machine, and the policy's stored mapping. The other
    options — including the [chunk_pool] lending path of
    docs/PARALLELISM.md — pass through to {!Bp_sim.Sim.run} unchanged;
    a run under the NoC delay model of a placement calls
    {!Bp_sim.Sim.run} with [?placement] directly. [elide] (default
    [true]) is {!Bp_sim.Sim.run}'s wake-elision switch; [~elide:false]
    ([bpc simulate --no-elide]) forces fully event-driven dispatch.
    Results are bit-identical either way — [events_processed] included,
    elided wakes are counted — except for [static_elided_events]. *)

(** {1 Rendering} *)

val pp_summary : Format.formatter -> t -> unit
(** The one-paragraph compile summary (node counts, PEs per policy,
    parallelize decisions). *)

val pp_timings : Format.formatter -> t -> unit
(** The per-pass timing table: wall time and node/channel deltas. *)

val pp_diagnostics : Format.formatter -> t -> unit

val pp_explain : Format.formatter -> t -> unit
(** The [--explain] view: timings, diagnostics, schedulability verdict,
    mapping and placement summary. *)
