(** Two-dimensional extents.

    A [Size.t] is the width and height of a data window, a frame, or an
    iteration space, always in elements (pixels). Extents are strictly
    positive; [v] enforces this. *)

type t = { w : int; h : int }

val v : int -> int -> t
(** [v w h] is the size [w]×[h]. Fails with
    {!Bp_util.Err.Invalid_parameterization} unless both are positive. *)

val one : t
(** The 1×1 size. *)

val area : t -> int
(** [area s] is [s.w * s.h], the number of elements. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val add : t -> t -> t
(** Component-wise sum. *)

val scale : t -> int -> int -> t
(** [scale s kx ky] multiplies the components. *)

val max_pair : t -> t -> t
(** Component-wise maximum. *)

val fits_within : t -> t -> bool
(** [fits_within inner outer] is true when [inner] is no larger than [outer]
    in both dimensions. *)

val pp : Format.formatter -> t -> unit
(** Prints as ["(WxH)"], matching the paper's figures. *)

val to_string : t -> string
