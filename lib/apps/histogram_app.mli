(** Whole-image histogram (benchmarks 2 / 2F of Figure 13).

    The simplest control-token application: pixels stream straight into a
    histogram kernel, the end-of-frame token triggers emission, and a
    serial merge (dependency-capped to one instance per frame) reduces
    partials when the histogram is parallelized. *)

val v :
  ?seed:int ->
  frame:Bp_geometry.Size.t ->
  rate:Bp_geometry.Rate.t ->
  n_frames:int ->
  unit ->
  App.instance
