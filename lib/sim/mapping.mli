(** Kernel-to-processor mappings.

    A mapping assigns every on-chip node (everything except sources, constant
    sources and sinks, which live off-chip) to a processor. The 1:1 mapping
    gives each kernel its own core (Figure 12(a)); the greedy multiplexing
    transform produces denser mappings (Figure 12(b)). *)

type t

val of_groups : Bp_graph.Graph.t -> Bp_graph.Graph.node_id list list -> t
(** [of_groups g groups] builds a mapping placing each group of node ids on
    one processor. Every on-chip node of [g] must appear exactly once;
    fails with {!Bp_util.Err.Graph_malformed} otherwise. Off-chip nodes
    (sources, const sources, sinks) must not appear. *)

val one_to_one : Bp_graph.Graph.t -> t
(** Each on-chip node on its own processor. *)

val processors : t -> int
(** Number of processors used. *)

val nodes_on : t -> int -> Bp_graph.Graph.node_id list
(** The nodes assigned to a processor, in assignment order. *)

val processor_of : t -> Bp_graph.Graph.node_id -> int option
(** The processor of a node; [None] for off-chip nodes. *)

val is_on_chip : Bp_graph.Graph.node -> bool
(** False for sources, constant sources and sinks. *)
