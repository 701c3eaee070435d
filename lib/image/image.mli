(** Two-dimensional float images.

    The functional half of the simulator moves real pixel data so that every
    compiled application can be checked against a reference computation.
    Images are dense row-major float arrays with value semantics on the API
    surface (functions return fresh images unless suffixed [_into]). *)

type t
(** An image with fixed width and height. *)

val create : Bp_geometry.Size.t -> t
(** [create s] is an all-zero image of extent [s]. *)

val init : Bp_geometry.Size.t -> (x:int -> y:int -> float) -> t
(** [init s f] fills each pixel with [f ~x ~y]. *)

val width : t -> int
val height : t -> int
val size : t -> Bp_geometry.Size.t

val unsafe_data : t -> float array
(** The backing scan-line array (row-major, length [width * height]), not a
    copy. Escape hatch for proven-hot loops: without flambda, every
    cross-module {!get}/{!set} call boxes its float, which dominates the
    simulator's allocation profile — indexing the raw array keeps the
    arithmetic unboxed. Callers take on bounds discipline themselves;
    everything else should go through the checked accessors. *)

val get : t -> x:int -> y:int -> float
(** [get img ~x ~y]. Raises [Invalid_argument] out of bounds. *)

val set : t -> x:int -> y:int -> float -> unit
(** In-place pixel update. Raises [Invalid_argument] out of bounds. *)

val copy : t -> t
(** A deep copy. *)

val sub : t -> x:int -> y:int -> Bp_geometry.Size.t -> t
(** [sub img ~x ~y s] extracts the [s]-sized window whose upper-left corner
    is [(x,y)]. Raises [Invalid_argument] when the window escapes the
    image. *)

val blit : src:t -> dst:t -> x:int -> y:int -> unit
(** [blit ~src ~dst ~x ~y] writes [src] into [dst] at [(x,y)]. *)

val fill : t -> float -> unit
(** Set every pixel. *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
(** Pointwise combination; extents must match ([Invalid_argument]). *)

val map_into : (float -> float) -> src:t -> dst:t -> unit
(** In-place counterpart of {!map}; [src == dst] is allowed. Extents must
    match ([Invalid_argument]). *)

val map2_into : (float -> float -> float) -> t -> t -> dst:t -> unit
(** In-place counterpart of {!map2}; [dst] may alias either input. All
    three extents must match ([Invalid_argument]). *)

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a
(** Scan-line order fold (left-to-right, top-to-bottom). *)

val iter_pixels : (x:int -> y:int -> float -> unit) -> t -> unit
(** Scan-line order iteration. *)

val to_scanline_list : t -> float list
(** All pixels in scan-line order — the order the block-parallel input
    streams them. *)

val of_scanline_list : Bp_geometry.Size.t -> float list -> t
(** Inverse of {!to_scanline_list}. [Invalid_argument] when the list length
    is not the image area. *)

val equal : ?eps:float -> t -> t -> bool
(** [equal a b] with tolerance [eps] (default [1e-9]) per pixel. Extent
    mismatch is [false]. *)

val max_abs_diff : t -> t -> float
(** Largest pixel difference; extents must match. *)

val pp : Format.formatter -> t -> unit
(** Prints the extent and a few corner pixels (diagnostic only). *)

(** Deterministic synthetic frames used by tests and benchmark workloads. *)
module Gen : sig
  val ramp : Bp_geometry.Size.t -> t
  (** [ramp s] has pixel value [x + y*w] — distinct everywhere, handy for
      tracking data movement. *)

  val constant : Bp_geometry.Size.t -> float -> t

  val noise : Bp_util.Prng.t -> Bp_geometry.Size.t -> float -> t
  (** [noise rng s amp] is uniform noise in [\[0, amp)]. *)

  val frame_sequence : seed:int -> Bp_geometry.Size.t -> int -> t list
  (** [frame_sequence ~seed s n] is [n] distinct deterministic frames — the
      synthetic stand-in for a camera input stream. *)
end
