(** Stream items.

    A channel carries a sequence of items: data chunks (one kernel
    iteration's window or output, a small image) interleaved with control
    tokens. Scan-line ordering is implicit in the sequence. *)

type t =
  | Data of Bp_image.Image.t
  | Ctl of Bp_token.Token.t

val data : Bp_image.Image.t -> t
val ctl : Bp_token.Token.t -> t

val is_data : t -> bool

val words : t -> int
(** Transfer cost in words: the chunk area for data, 1 for a token. *)

val chunk_exn : t -> Bp_image.Image.t
(** The image of a [Data] item. Raises [Invalid_argument] on tokens. *)

val token_exn : t -> Bp_token.Token.t
(** The token of a [Ctl] item. Raises [Invalid_argument] on data. *)

val pp : Format.formatter -> t -> unit
