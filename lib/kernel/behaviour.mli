(** Kernel runtime behaviours.

    A behaviour is the executable half of a kernel: a [try_step] function
    the simulator calls when the kernel's processor is free. One step either
    fires one method (consuming input items, producing output items, and
    reporting the cycles spent) or reports that the kernel cannot progress.

    The module also provides {!iteration_kernel}, the generic wrapper for
    ordinary per-iteration kernels (convolution, subtract, histogram, ...).
    It implements the paper's control-token semantics:

    - a data method fires when every trigger input has a data chunk at the
      front of its queue;
    - when every trigger input of a method instead has the *same kind* of
      control token at the front, the token is consumed once from each and
      either dispatched to a registered [On_token] method (the histogram's
      [finishCount]) or automatically forwarded to the method's outputs
      (Section II-C: kernels only pay attention to the tokens they care
      about);
    - mixed fronts (data on one input, token on another) block until the
      streams re-align, which the compiler's alignment pass guarantees will
      happen. *)

type io = {
  peek : string -> Item.t option;
      (** Front of an input queue, without consuming. *)
  pop : string -> Item.t;
      (** Consume the front of an input queue. Raises if empty. *)
  push : string -> Item.t -> unit;
      (** Append to an output (all fan-out channels). Caller must have
          checked {!field-space}. *)
  space : string -> int;
      (** Free item slots on an output — the minimum across its fan-out
          channels. *)
  acquire : Bp_geometry.Size.t -> Bp_image.Image.t;
      (** An all-zero chunk of the given extent, recycled from the engine's
          pool when one is idle. The caller owns it: push it onward or
          {!field-release} it. *)
  release : Bp_image.Image.t -> unit;
      (** Return a chunk whose ownership ended here (popped and not
          forwarded, or acquired and discarded) to the engine's pool. The
          allocation-naive reference engine wires this to [ignore]. *)
  has_input : string -> bool;
      (** Whether an input queue has a front item — [peek <> None] without
          the option allocation. Decline oracles ({!field-starved}) call
          this after firings and on every channel change next to an
          elided wake, so it must stay free of per-call allocation. *)
}

type fired = { method_name : string; cycles : int }
(** Accounting result of a successful step. Words moved are counted by the
    simulator inside [pop]/[push]. *)

type t = {
  try_step : io -> fired option;
  starved : (io -> bool) option;
      (** Exact decline oracle. When present, [starved io = true] MUST
          imply that [try_step io] would return [None] without mutating
          anything — from the behaviour's *current* private state and the
          current channel fronts. It may conservatively return [false].
          The oracle itself must not mutate state and should not allocate.
          The simulator's wake elision uses it to skip the processor-free
          wake event after a firing whose processor is provably starved —
          exact, never an approximation (docs/PERFORMANCE.md). [None]
          means "no oracle": the kernel is always re-attempted. *)
}

val v : ?starved:(io -> bool) -> (io -> fired option) -> t
(** Build a behaviour from a [try_step] and an optional decline oracle.
    Hand-rolled kernels with private firing state (the buffer's pending
    window, the padder's margin cursor) implement [starved] natively;
    {!iteration_kernel} derives one automatically from its method
    triggers. *)

val forward_method_name : string
(** The pseudo-method name reported when a step merely forwarded an
    unhandled control token. *)

type alloc = Bp_geometry.Size.t -> Bp_image.Image.t
(** How a method body obtains output chunks: wired to {!field-acquire} by
    {!iteration_kernel}, so steady-state firings recycle instead of
    allocating. Bodies must treat the result as all-zero scratch they now
    own. *)

type data_run =
  alloc:alloc ->
  inputs:Bp_image.Image.t array ->
  outputs:Bp_image.Image.t array ->
  unit
(** A data method body: [inputs] holds the consumed chunks in the
    method's trigger-declaration order; the body stores at most one
    produced chunk per declared output into [outputs] (the method's output
    declaration order) and leaves untouched the slots of outputs it does
    not produce. Both arrays are preallocated scratch owned by the
    wrapper — a body must not retain them. Ownership contract: every
    chunk stored into [outputs] is transferred to the runtime; every
    input chunk not stored there (by physical identity) is released back
    to the pool after the body runs — so a body must not stash an input
    image in its state (copy or blit it instead), and must obtain fresh
    outputs from [alloc], never from a captured cache. *)

type token_run =
  alloc:alloc -> Bp_token.Token.t -> (string * Bp_image.Image.t) list
(** A token method body (e.g. emit the finished histogram on EOF):
    produced chunks keyed by output name, at most one per output. Naming
    an output the method does not declare fails the firing. Same
    ownership contract for returned chunks as {!data_run}. *)

val iteration_kernel :
  ?token_forward_cycles:int ->
  methods:Method_spec.t list ->
  run:(string -> data_run) ->
  ?token_run:(string -> token_run) ->
  unit ->
  t
(** [iteration_kernel ~methods ~run ()] builds the standard wrapper.
    [run m] is the body of [On_data] method [m], resolved once per method
    when the behaviour is built; [token_run m] runs for [On_token] method
    [m] (defaults to producing nothing). [token_forward_cycles] (default
    2) is the cost of auto-forwarding an unhandled token. State is
    whatever the [run] closures capture — callers allocate fresh state per
    behaviour instance. Firings run through preallocated scratch arrays,
    so the wrapper builds no per-firing list. *)

val pop_data : io -> string -> Bp_image.Image.t
(** Helper for custom behaviours: pop and assert a data chunk. *)
