(** Reference (golden) image operations.

    These are straightforward whole-frame implementations of the kernels in
    the standard library. Integration tests compare the pixel output of a
    compiled-and-simulated application against these, which is what makes
    the simulator "functional" and not just a timing model. All windowed
    operations are *valid-region only*: a [k]×[k] filter over [W]×[H]
    produces [(W-k+1)]×[(H-k+1)] — exactly the iteration space the dataflow
    analysis computes. *)

val convolve : Image.t -> kernel:Image.t -> Image.t
(** [convolve img ~kernel] is the valid-region 2-D correlation-style
    convolution used by the paper's kernel (coefficients flipped, as in
    Figure 6). *)

val convolve_into : Image.t -> kernel:Image.t -> dst:Image.t -> unit
(** In-place counterpart of {!convolve}: [dst] must have the valid-region
    extent ([Invalid_argument] otherwise) and is fully overwritten. Used by
    the pooled data plane; bit-identical to the allocating form. *)

val median : Image.t -> w:int -> h:int -> Image.t
(** Valid-region [w]×[h] median filter. *)

val median_into :
  ?scratch:float array -> Image.t -> w:int -> h:int -> dst:Image.t -> unit
(** In-place counterpart of {!median}. [scratch], when given, must have
    length [w*h] and is used as the sort window (lets steady-state callers
    avoid the per-call window allocation). *)

val subtract : Image.t -> Image.t -> Image.t
(** Pointwise difference; extents must match. *)

val subtract_into : Image.t -> Image.t -> dst:Image.t -> unit
(** In-place counterpart of {!subtract}; [dst] may alias either input. *)

val gain : Image.t -> float -> Image.t
(** Pointwise scale. *)

val histogram : Image.t -> bins:int -> lo:float -> hi:float -> float array
(** [histogram img ~bins ~lo ~hi] counts pixels into [bins] equal-width bins
    over [\[lo, hi)]; out-of-range pixels clamp to the end bins, matching the
    kernel's [findBin]. *)

val trim : Image.t -> left:int -> right:int -> top:int -> bottom:int -> Image.t
(** Remove margins (the inset kernel's behaviour). *)

val pad_zero : Image.t -> left:int -> right:int -> top:int -> bottom:int -> Image.t
(** Grow by zero margins (the pad kernel's behaviour). *)

val downsample : Image.t -> fx:int -> fy:int -> Image.t
(** Keep every [fx]-th column and [fy]-th row starting at the origin. *)

val downsample_extent : Image.t -> fx:int -> fy:int -> Bp_geometry.Size.t
(** The extent {!downsample} would produce ([Invalid_argument] on
    non-positive factors) — what a caller must [acquire] for
    {!downsample_into}. *)

val downsample_into : Image.t -> fx:int -> fy:int -> dst:Image.t -> unit
(** In-place counterpart of {!downsample}; [dst] must have
    {!downsample_extent}. *)

val bayer_demosaic : Image.t -> Image.t * Image.t * Image.t
(** [bayer_demosaic raw] is a simple RGGB bilinear demosaic producing the
    valid-region (border trimmed by 1) red, green and blue planes. The input
    raw mosaic is interpreted as R at even-x/even-y, B at odd-x/odd-y, G
    elsewhere. *)
