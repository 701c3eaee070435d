(** Kernel ports.

    A port is one named input or output of a kernel, carrying the full
    block-parallel parameterization: a window (size, step, offset) and, for
    inputs, whether the stream should be replicated rather than distributed
    when the kernel is parallelized (Section II-A). *)

type t = {
  name : string;
  window : Bp_geometry.Window.t;
  replicated : bool;
      (** Inputs only: under parallelization the data is copied to every
          instance instead of being split (dashed edges in the paper's
          figures). Always [false] on outputs. *)
}

val input : ?replicated:bool -> string -> Bp_geometry.Window.t -> t
(** [input name window] declares an input port. *)

val output : string -> Bp_geometry.Window.t -> t
(** [output name window] declares an output port. *)

val buffer_words : t -> int
(** Implicit buffering contributed by the port: space for one iteration,
    double-buffered ([2 × window area]), per Figure 5 of the paper. *)

val find : t list -> string -> t
(** [find ports name] looks a port up by name. Fails with
    {!Bp_util.Err.Graph_malformed} when absent. *)
