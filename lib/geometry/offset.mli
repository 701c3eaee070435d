(** Input-to-output offsets.

    The offset of an input declares where each produced output sits relative
    to the upper-left corner of the consumed input window (Figure 5(b) of the
    paper). A centered 5×5 window has offset [\[2.0,2.0\]]. Offsets may be
    fractional for downsampling kernels, which is why they are floats. *)

type t = { ox : float; oy : float }

val v : float -> float -> t
(** [v ox oy]. Fails with {!Bp_util.Err.Invalid_parameterization} when a
    component is negative or not finite. *)

val zero : t
(** The offset [0.0,0.0]. *)

val centered : Size.t -> t
(** [centered s] is the offset placing the output at the center of window
    [s]: [floor(w/2), floor(h/2)] — the convention used by the paper's
    convolution kernel. *)

val pp : Format.formatter -> t -> unit
(** Prints as ["[ox,oy]"] with one decimal, matching the paper. *)
