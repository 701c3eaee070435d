(** Stream descriptions computed by the dataflow analysis.

    A stream describes what flows over one channel in the steady state:
    chunk shape, how many chunks per frame (and their scan-line grid when it
    is rectangular), the logical data extent downstream window math should
    use, the frame rate, and the accumulated inset from the originating
    application input. *)

type t = {
  chunk : Bp_geometry.Size.t;  (** Extent of each data chunk. *)
  chunks_per_frame : float;
      (** Data chunks per frame. Fractional after round-robin splitting
          (each branch carries a share). *)
  grid : Bp_geometry.Size.t option;
      (** Chunks-per-row × rows-per-frame when the stream is a rectangular
          scan-line grid; [None] for interleaved branch streams. *)
  extent : Bp_geometry.Size.t;
      (** The logical frame extent consumers apply their windows to. *)
  rate : Bp_geometry.Rate.t option;
      (** Frame rate; [None] for constant configuration streams. *)
  inset : Bp_geometry.Inset.t;
      (** Accumulated inset from the originating input (Section III-C). *)
  origin : int option;
      (** Node id of the application input this stream derives from, when
          unique. *)
  constant : bool;
      (** True for configuration streams (coefficients, bin bounds) that do
          not recur every frame. *)
}

val constant_stream : chunk:Bp_geometry.Size.t -> t
(** The stream of a constant source: one chunk ever, no rate, no tokens. *)

val source_stream :
  frame:Bp_geometry.Size.t -> rate:Bp_geometry.Rate.t -> origin:int -> t
(** The pixel stream of an application input. *)

val words_per_frame : t -> float
(** Data words per frame ([chunks_per_frame × chunk area]). *)

val same_rate : t list -> Bp_geometry.Rate.t option
(** The common rate of the non-constant streams. Fails with
    {!Bp_util.Err.Rate_mismatch} when two streams disagree; [None] when all
    streams are constant. *)
