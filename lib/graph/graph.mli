(** The application graph.

    Kernels (nodes) connected by stream channels, plus data-dependency edges
    that limit parallelism (Section IV-B). The graph is the unit every
    compiler pass consumes and produces: analyses annotate it, transforms
    rewrite it, the simulator executes it.

    Structural invariants (checked by {!validate}):
    - every channel joins an existing output port to an existing input port;
    - every input port has exactly one incoming channel (outputs may fan
      out to several consumers);
    - sources have no inputs, sinks no outputs;
    - the stream graph is acyclic unless the graph was created with
      [~allow_cycles:true] (the feedback extension, Section III-D). *)

type node_id = int

(** Metadata attached by construction or by compiler passes, surfaced in
    figure labels and used by the analyses. *)
type meta =
  | Plain
  | Source_meta of { frame : Bp_geometry.Size.t; rate : Bp_geometry.Rate.t }
  | Buffer_meta of { storage : Bp_geometry.Size.t }
      (** The buffer's allocated 2-D storage — the "[20x10]" labels of
          Figures 3-4. *)
  | Split_meta of { ways : int }  (** Round-robin distributor. *)
  | Column_split_meta of { ranges : (int * int) array }
      (** Column-range distributor for split buffers (Figure 10). *)
  | Join_meta of { ways : int }  (** Round-robin collector. *)
  | Pattern_join_meta of {
      pattern : int array;
      out_extent : Bp_geometry.Size.t;
          (** Logical extent of the re-serialized stream. *)
    }
      (** Striped collector for split buffers. *)
  | Inset_meta of { left : int; right : int; top : int; bottom : int }
  | Pad_meta of { left : int; right : int; top : int; bottom : int }
  | Feedback_init_meta of {
      extent : Bp_geometry.Size.t;
      rate : Bp_geometry.Rate.t;
    }
      (** Marks an initialization kernel that breaks a feedback loop; the
          payload declares the loop stream's geometry, seeding the
          work-list dataflow (Section III-D). *)

type node = {
  id : node_id;
  name : string;  (** Unique instance name, e.g. ["5x5 Conv_0"]. *)
  spec : Bp_kernel.Spec.t;
  meta : meta;
}

type endpoint = { node : node_id; port : string }

type channel = {
  chan_id : int;
  src : endpoint;  (** An output port. *)
  dst : endpoint;  (** An input port. *)
  capacity : int;  (** Queue capacity in items. *)
}

type dep = { dep_src : node_id; dep_dst : node_id }
(** A data-dependency edge: the parallelism of [dep_dst] is limited to that
    of [dep_src]. *)

type t

val create : ?allow_cycles:bool -> unit -> t
(** An empty graph. *)

val default_capacity : int
(** Default channel capacity in items (a couple of iterations of implicit
    port buffering plus in-flight control tokens). *)

val add : ?name:string -> ?meta:meta -> t -> Bp_kernel.Spec.t -> node_id
(** [add g spec] inserts a kernel instance. [name] defaults to the spec's
    class name, uniquified with a [_k] suffix when necessary. Fails with
    {!Bp_util.Err.Graph_malformed} if [name] is given and already taken. *)

val connect :
  ?capacity:int -> t -> from:node_id * string -> into:node_id * string -> unit
(** [connect g ~from:(n,"out") ~into:(m,"in")] adds a stream channel. Fails
    when a port does not exist, direction is wrong, or the input is already
    driven. *)

val add_dep : t -> src:node_id -> dst:node_id -> unit
(** Add a data-dependency edge. *)

val remove_channel : t -> int -> unit
(** Remove a channel by id. *)

val remove_node : t -> node_id -> unit
(** Remove a node and all channels and dependency edges touching it. *)

val node : t -> node_id -> node
(** Look a node up. Fails with {!Bp_util.Err.Graph_malformed} when absent. *)

val node_by_name : t -> string -> node
(** Look a node up by instance name. *)

val nodes : t -> node list
(** All nodes, in increasing id order. *)

val channels : t -> channel list
(** All channels, in increasing id order. *)

val deps : t -> dep list

val channel : t -> int -> channel

val in_channel : t -> node_id -> string -> channel option
(** The channel driving the given input port, if connected. *)

val in_channels : t -> node_id -> channel list
(** Channels into any input of the node. *)

val out_channels : t -> node_id -> ?port:string -> unit -> channel list
(** Channels out of the node, optionally restricted to one output port. *)

val predecessors : t -> node_id -> node_id list
(** Distinct upstream neighbours over stream channels. *)

val successors : t -> node_id -> node_id list
(** Distinct downstream neighbours over stream channels. *)

val dep_sources : t -> node_id -> node_id list
(** Nodes this node depends on via dependency edges. *)

val sources : t -> node list
(** Nodes whose spec role is [Source]. *)

val const_sources : t -> node list
val sinks : t -> node list

val topological_order : t -> node list
(** Nodes sorted so every stream channel goes forward. Fails with
    {!Bp_util.Err.Graph_malformed} on a cycle when cycles are not allowed;
    with [~allow_cycles:true], back edges found by DFS are ignored for the
    ordering (callers must use the work-list analysis). *)

val validate : t -> unit
(** Check all structural invariants; fails with
    {!Bp_util.Err.Graph_malformed} otherwise. *)

val size : t -> int
(** Number of nodes. *)

val copy : t -> t
(** A structural deep copy (specs are shared; they are immutable). Node and
    channel ids are preserved. *)

val pp_summary : Format.formatter -> t -> unit
(** One line per node with its class, role and degree — the textual
    counterpart of the paper's application-graph figures. *)
