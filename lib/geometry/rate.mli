(** Frame rates — the real-time constraint.

    Application inputs arrive at a fixed rate; the compiler's job is to
    guarantee the graph keeps up. Rates are frames per second (strictly
    positive, finite). *)

type t = private float
(** Frames per second. *)

val hz : float -> t
(** [hz f] is the rate [f] frames/s. Fails with
    {!Bp_util.Err.Invalid_parameterization} unless positive and finite. *)

val to_hz : t -> float
(** The rate in frames per second. *)

val frame_period_s : t -> float
(** [frame_period_s r] is [1 / r]: seconds per frame. *)

val element_period_s : t -> frame:Size.t -> float
(** [element_period_s r ~frame] is the inter-arrival time of individual
    elements when a [frame]-sized input streams at rate [r]:
    [1 / (r * area frame)]. *)

val equal : t -> t -> bool
val to_string : t -> string
