(** Rational sample-rate conversion (extension example).

    The classic 1-D DSP expander/filter/decimator cascade over row frames:
    zero-stuff by L = 2, low-pass with a 5-tap averaging FIR, decimate by
    M = 3. Exercises a block-producing kernel (the expander's 1×L output
    tiles) feeding a windowed consumer — the compiler inserts a block-fed
    buffer — plus a downsampling buffer for the decimator, all verified
    against a whole-row reference. *)

val v :
  ?seed:int ->
  frame:Bp_geometry.Size.t ->
  rate:Bp_geometry.Rate.t ->
  n_frames:int ->
  unit ->
  App.instance
(** [frame] must be a row frame (height 1) wide enough for the cascade. *)
