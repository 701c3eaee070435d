(** Quasi-static schedules: per-kernel periodic firing tables and the
    partition of a mapped graph into static regions.

    Built by the compiler's [schedule] pass, the last of nine, from an
    untimed functional execution of the graph — the "recorder" — and
    carried in the {!Bp_compiler.Plan.t} artifact. The timed engine
    ({!Sim.run} [?static_schedule]) uses the artifact to {e report} how
    much of a run matched the predicted firing pattern; its correctness
    never depends on the tables. What makes quasi-static execution exact
    is the kernels' [starved] decline oracles
    ({!Bp_kernel.Behaviour.t.starved}) — see docs/PERFORMANCE.md
    §"Quasi-static execution".

    Determinism note: per-node firing sequences are a function of input
    item sequences alone (declined attempts mutate nothing — the Kahn
    determinism argument in docs/COMPILER.md), so the untimed recorder
    observes the same per-node sequences as any timed interleaving, and
    rebuilding the schedule always yields an identical artifact. *)

(** The kind of item a recorded firing moved. *)
type item_kind = K_data | K_eol | K_eof | K_user

val kind_name : item_kind -> string

(** One recorded firing. The recorder runs the real behaviours on the
    timed engine's data plane: one {!Ring} per channel, ports bound once
    per node, chunks from a per-build {!Bp_image.Pool} with pooled copies
    on fan-out channels beyond the first. Each firing is interned against
    its node's few distinct (method, pops, pushes) shapes, and entries
    that share a shape share one record. *)
type entry = {
  e_method : string;  (** Method the firing executed. *)
  e_pops : (int * item_kind) array;
      (** Channel id and item kind of each pop, in pop order. *)
  e_pushes : (int * item_kind) array;
      (** Channel id and item kind of each push (one per fan-out copy). *)
}

type node_table = {
  t_node : Bp_graph.Graph.node_id;
  t_prelude : entry array;
      (** Firings of the first recorded frame, in order. *)
  t_period : entry array;
      (** Firings of the second frame — the steady-state cycle. Empty
          when fewer than two frames were recorded (no period known). *)
  t_verified : bool;
      (** A third recorded frame repeated [t_period] exactly. *)
  t_user_tokens : bool;
      (** The node popped or pushed a [User] control token — it is
          excluded from static regions. *)
  t_firings : int;
      (** Every firing the recorder saw the node make, over all recorded
          frames — not only the prelude and period. *)
}

type region = {
  r_id : int;
  r_nodes : Bp_graph.Graph.node_id list;  (** Ascending. *)
  r_static : bool;
}

type t = {
  tables : (Bp_graph.Graph.node_id * node_table) list;  (** Ascending id. *)
  regions : region list;
      (** Every node of the graph appears in exactly one region: static
          nodes grouped by channel-connectivity, every other node as a
          singleton dynamic region (invariant asserted in
          [test/test_schedule.ml]). *)
  by_proc : (int * Bp_graph.Graph.node_id list) list;
      (** Static nodes of each processor — the per-PE firing-table
          projection. PEs with no static kernel are omitted. *)
  recorded_firings : int;
  truncated : bool;
      (** The recorder hit its firing cap; [tables] and [regions] are
          empty and the simulator falls back to fully-dynamic dispatch. *)
}

val empty : t

val build :
  ?max_firings:int ->
  graph:Bp_graph.Graph.t ->
  mapping:Mapping.t ->
  unit ->
  t
(** Record an untimed execution of [graph] (default cap 5 million
    firings; past it the result is [truncated] and otherwise empty),
    segment each node's firing sequence at its end-of-frame pops into
    prelude + period, and partition the graph into regions. Sinks are
    drained raw rather than instantiated — instantiating a sink
    behaviour would reset the application's shared output collector. *)

val table : t -> Bp_graph.Graph.node_id -> node_table option

val static_node_ids : t -> Bp_graph.Graph.node_id list
(** Members of all static regions. *)

val static_regions : t -> int
(** Number of static regions. *)

val coverage_bound : t -> float
(** Fraction of recorded firings made by static-region nodes, summing
    each one's [t_firings] over all recorded frames — an upper bound on
    the runtime static coverage ([static_fired / fires]) a run can
    report. *)

val pp : Bp_graph.Graph.t -> Format.formatter -> t -> unit
(** The [--dump-after schedule] rendering: regions, per-PE projections,
    and per-table prelude/period summaries. *)
