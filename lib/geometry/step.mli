(** Window step sizes.

    A step [\[sx,sy\]] is how far an input/output window advances between
    kernel iterations in X and Y, in elements. Steps are strictly
    positive. A step equal to the window size means no data reuse (e.g. the
    coefficient input of a convolution); a step of [1,1] with a larger window
    is the classic sliding window. *)

type t = { sx : int; sy : int }

val v : int -> int -> t
(** [v sx sy]. Fails with {!Bp_util.Err.Invalid_parameterization} unless both
    components are positive. *)

val one : t
(** The step [1,1]. *)

val of_size : Size.t -> t
(** [of_size s] is the non-overlapping step for window [s]
    (step = window size). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints as ["[sx,sy]"], matching the paper's figures. *)
