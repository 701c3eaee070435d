(** Kernel specifications.

    A spec is the complete static description of one kernel: its role in
    the graph, its parameterized ports, its methods with resource
    requirements, and a constructor for fresh runtime behaviour instances.
    Specs are immutable and shareable; every parallel replica built by the
    compiler instantiates its own behaviour (and therefore its own private
    state) from the same spec. *)

type role =
  | Source  (** A real-time application input (frame size + rate). *)
  | Const_source
      (** A configuration input (coefficients, bin ranges): emits once,
          carries no tokens. *)
  | Sink  (** An application output. *)
  | Compute  (** An ordinary computation kernel. *)
  | Buffer  (** A compiler-inserted 2-D circular buffer. *)
  | Split  (** A compiler-inserted data distributor FSM. *)
  | Join  (** A compiler-inserted data collector FSM. *)
  | Inset  (** A compiler-inserted trim kernel. *)
  | Pad  (** A compiler-inserted padding kernel. *)
  | Replicate  (** A compiler-inserted copier for replicated inputs. *)

type t = {
  class_name : string;
      (** The kernel class, e.g. ["5x5 Conv"]. Instance naming (the [_0],
          [_1] suffixes of the paper's figures) happens in the graph. *)
  role : role;
  inputs : Port.t list;
  outputs : Port.t list;
  methods : Method_spec.t list;
  state_words : int;  (** Private state memory, in words. *)
  token_budgets : Bp_token.Token.Bound.budget list;
      (** Declared maximum per-frame rates of the user-defined tokens this
          kernel handles (Section II-C: kernels may define their own control
          tokens provided they bound the rate, so the compiler can budget
          the handlers' cycles). *)
  parallelization : parallelization;
  emission_burst : int;
      (** The most items one firing may push onto a single output port
          before re-checking space — the guard a self-driven emitter
          (source, const source) evaluates before firing. The scheduler
          uses it for an exact blocked-vs-exhausted test: an emitter whose
          [try_step] declines while some output channel has fewer than
          [emission_burst] free slots is blocked on space (and must be
          retried once space frees); one that declines with the burst
          available everywhere is exhausted. Defaults to 1; the streaming
          {!Bp_kernels.Source} declares 3 (pixel + end-of-line +
          end-of-frame at a frame corner). *)
  make_behaviour : unit -> Behaviour.t;
      (** Allocates a fresh runtime instance with fresh private state. *)
}

(** How the compiler may parallelize the kernel (Sections IV-A to IV-C). *)
and parallelization =
  | Data_parallel
      (** Replicate freely with round-robin split/join — the default. *)
  | Serial
      (** Never replicate (stateful reductions like the histogram merge;
          compiler-owned FSM kernels, which have their own specialized
          splitting transforms). *)
  | Custom of (replica:int -> ways:int -> t)
      (** Programmatic parallelization: the kernel supplies a routine
          producing the spec of replica [replica] out of [ways] (e.g. a
          position-dependent kernel that strides its iteration index). *)

val v :
  ?role:role ->
  ?state_words:int ->
  ?token_budgets:Bp_token.Token.Bound.budget list ->
  ?parallelization:parallelization ->
  ?emission_burst:int ->
  class_name:string ->
  inputs:Port.t list ->
  outputs:Port.t list ->
  methods:Method_spec.t list ->
  make_behaviour:(unit -> Behaviour.t) ->
  unit ->
  t
(** Builds and validates a spec. Fails with
    {!Bp_util.Err.Graph_malformed} when: port names collide; a method
    references an unknown port; an input is not consumed by any data
    method (the runtime would never drain it); or two data methods share a
    trigger input (triggers must be disjoint, Section II-B). *)

val find_input : t -> string -> Port.t
val find_output : t -> string -> Port.t
val find_method : t -> string -> Method_spec.t

val user_token_budget : t -> Bp_token.Token.kind -> int option
(** The declared per-frame bound for a user token kind, if any. *)

val memory_words : t -> int
(** Total memory footprint: private state plus the implicit double-buffered
    port iteration buffers. *)

val replica_spec : t -> replica:int -> ways:int -> t
(** The spec to instantiate for one replica: the spec itself for
    [Data_parallel], the custom routine's result for [Custom]. Fails with
    {!Bp_util.Err.Unsupported} for [Serial]. *)
