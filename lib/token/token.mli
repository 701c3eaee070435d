(** Control tokens.

    Tokens travel in-stream with the data (Section II-C of the paper). The
    two standard kinds — end-of-line and end-of-frame — are generated
    automatically by application inputs and by geometry-changing kernels
    (buffers, insets). Kernels may define their own kinds, provided they
    declare a static maximum rate so the compiler can budget resources for
    handling them. *)

type kind =
  | End_of_line
  | End_of_frame
  | User of string  (** Kernel-defined control, named. *)

type t = { kind : kind; seq : int }
(** [seq] numbers the line within the frame (for [End_of_line]) or the frame
    within the run (for [End_of_frame] and [User]); it exists for tracing and
    runtime assertions, not for control decisions. *)

val eol : int -> t
val eof : int -> t
val user : string -> int -> t

val kind_equal : kind -> kind -> bool

val equal : t -> t -> bool

val words : t -> int
(** Transfer cost of a token on a channel, in words (always [1] — tokens are
    small control messages). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Static rate bounds for user-defined tokens, per Section II-C: the
    programmer declares how many of each kind can be generated per frame so
    that analysis can account for the handler's cycles. *)
module Bound : sig
  type budget = { kind : kind; max_per_frame : int }

  val v : kind -> max_per_frame:int -> budget
  (** Fails with {!Bp_util.Err.Invalid_parameterization} if
      [max_per_frame < 0]. *)
end
