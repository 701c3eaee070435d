(** Kernel methods.

    A kernel registers one or more methods (Section II-B). Each method is
    triggered either by data arriving on a set of inputs or by a specific
    control token on one input, names the outputs it may write, and declares
    the compute cycles one invocation costs. Methods of one kernel share the
    kernel's private state. *)

type trigger =
  | On_data of string list
      (** Fires when a full window of data is available on every listed
          input. The list must be non-empty and duplicate-free. *)
  | On_token of string * Bp_token.Token.kind
      (** Fires when the given token kind arrives on the given input (e.g.
          the histogram's [finishCount] on end-of-frame). *)

type t = {
  name : string;
  trigger : trigger;
  outputs : string list;  (** Outputs this method may write, in push order. *)
  cycles : int;  (** Compute cycles consumed per invocation. *)
  forward_token : bool;
      (** For [On_token] methods: whether the handled token is re-emitted on
          the method's outputs after the handler runs (default [true], so
          frame structure propagates downstream). Ignored for [On_data]. *)
}

val on_data :
  ?cycles:int -> name:string -> inputs:string list -> outputs:string list ->
  unit -> t
(** Data-triggered method; [cycles] defaults to 1. Fails with
    {!Bp_util.Err.Invalid_parameterization} on an empty or duplicated input
    list. *)

val on_token :
  ?cycles:int -> ?forward_token:bool -> name:string -> input:string ->
  kind:Bp_token.Token.kind -> outputs:string list -> unit -> t
(** Token-triggered method; [cycles] defaults to 1. *)

val trigger_inputs : t -> string list
(** The inputs participating in the trigger. *)
