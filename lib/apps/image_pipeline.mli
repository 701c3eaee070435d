(** The paper's running example (Figure 1(b)).

    A frame stream is filtered by a 3×3 median and a 5×5 box-filter
    convolution, the per-pixel difference is taken, and a 16-bin histogram
    is computed per frame;
    partial histograms merge serially once per frame (enforced by a
    data-dependency edge from the input). The raw graph contains no buffers,
    insets, splits or joins — the compiler inserts all of them.

    The golden computation mirrors the chosen alignment policy: under
    [Trim] the median output loses one pixel per side; under [Pad_zero] the
    convolution input is zero-padded by one pixel per side. *)

val v :
  ?policy:Bp_transform.Align.policy ->
  ?seed:int ->
  frame:Bp_geometry.Size.t ->
  rate:Bp_geometry.Rate.t ->
  n_frames:int ->
  unit ->
  App.instance
(** Build the raw application instance. [frame] must be at least 10×10 so
    both filters and the trim fit. *)
