(** Greedy time-multiplexing of kernels onto processors (Section V).

    A naive 1:1 kernel-to-core mapping wastes cores on low-utilization
    buffers and split/join FSMs. The greedy algorithm walks the graph and
    merges a kernel onto a neighbour's processor whenever their combined
    CPU utilization stays below the machine's target and their combined
    state fits the PE memory. Initial input buffers — buffers fed (possibly
    through a split) straight from an application input — are never
    multiplexed, because a delayed buffer would block the input
    (Figure 12). *)

type group_stats = {
  members : string list;
  predicted_utilization : float;  (** Analysis-predicted, not measured. *)
  memory_words : int;
}

val one_to_one : Bp_graph.Graph.t -> Bp_graph.Graph.node_id list list
(** The identity grouping: every on-chip kernel on its own processor. *)

val greedy :
  Bp_machine.Machine.t -> Bp_graph.Graph.t -> Bp_graph.Graph.node_id list list
(** The greedy merged grouping. *)

val stats :
  Bp_machine.Machine.t ->
  Bp_graph.Graph.t ->
  Bp_graph.Graph.node_id list list ->
  group_stats list
(** Predicted per-processor statistics for a grouping. *)

val protected_input_buffer :
  Bp_graph.Graph.t -> Bp_graph.Graph.node_id -> bool
(** Whether the node is an initial input buffer (excluded from merging). *)
