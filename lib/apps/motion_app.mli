(** Temporal motion detection (extension example).

    Frame-to-frame change detection: the pixel stream is compared against a
    one-frame-delayed copy of itself, and a histogram summarizes the
    per-frame motion energy. The delay is a [Feedback.init] kernel
    pre-loaded with a full frame of zeros — the paper's initial-value
    mechanism (Section III-D) used as a forward delay line rather than in a
    loop. The comparison kernel treats the delayed input as token-free, so
    frame structure flows from the live stream only. *)

val v :
  ?seed:int ->
  frame:Bp_geometry.Size.t ->
  rate:Bp_geometry.Rate.t ->
  n_frames:int ->
  unit ->
  App.instance
