(** Small numeric helpers shared by analyses and reports. *)

val mean : float list -> float
(** Arithmetic mean; [0.] on the empty list. *)

val minimum : float list -> float
(** Smallest element. Raises [Invalid_argument] on the empty list. *)

val maximum : float list -> float
(** Largest element. Raises [Invalid_argument] on the empty list. *)

val clamp : lo:int -> hi:int -> int -> int
(** Integer clamp. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is [a/b] rounded up; [b] must be positive, [a]
    non-negative. *)

val pct : float -> string
(** [pct 0.374] is ["37.4%"]. *)
