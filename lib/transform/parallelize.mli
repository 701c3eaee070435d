(** Automatic parallelization to meet the real-time constraint (Section IV).

    For every kernel the transform compares the cycles-per-second it needs
    (compute plus channel I/O, from the dataflow analysis) against what one
    processing element provides, and the memory it needs against one PE's
    local store:

    - data-parallel compute kernels that need more than one PE are
      replicated, with round-robin split/join FSM kernels distributing and
      collecting the data (Figure 4); replicated inputs get a replicate
      kernel instead of a split;
    - kernels with a [Custom] parallelization supply their own replica
      specs (e.g. position-strided kernels);
    - data-dependency edges cap a kernel's degree at its dependency
      source's degree (Section IV-B) — an edge from an application input
      caps at one instance per frame;
    - buffers that exceed one PE's memory (or input rate) are split
      column-wise into stripes with overlap replication at the seams
      (Figure 10): a column-split FSM, one sub-buffer per stripe, and a
      pattern join that re-serializes the window stream;
    - serial kernels that would need more than one PE make the program
      unschedulable, reported via {!Bp_util.Err.Not_schedulable}. *)

type reason = Cpu_bound | Memory_bound | Capped_by_dependency

type decision = {
  original : string;  (** Instance name of the kernel that was rewritten. *)
  degree : int;
  reason : reason;
  replicas : Bp_graph.Graph.node_id list;
      (** The replica (or stripe sub-buffer) nodes. *)
}

val required_cycles_per_s :
  Bp_analysis.Dataflow.t ->
  Bp_machine.Machine.t ->
  Bp_graph.Graph.node_id ->
  float
(** Compute + I/O cycles per second the node needs in the steady state. *)

val degree_of :
  Bp_analysis.Dataflow.t ->
  Bp_machine.Machine.t ->
  Bp_graph.Graph.node_id ->
  int
(** The parallelization degree the node needs before dependency capping
    (max of CPU and, for buffers, memory pressure). *)

val run : Bp_machine.Machine.t -> Bp_graph.Graph.t -> decision list
(** Mutates the graph in place. Fails with
    {!Bp_util.Err.Not_schedulable} when a serial kernel cannot keep up and
    {!Bp_util.Err.Resource_exhausted} when a non-buffer kernel cannot fit
    in one PE's memory. Every check runs before the first rewrite, so a
    failure leaves the graph as it was, unless a buffer is fed by a
    rewritten node. *)
