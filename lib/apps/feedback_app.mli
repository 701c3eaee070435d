(** A feedback application (Section III-D extension): a first-order IIR
    accumulator over the pixel stream, [y(n) = x(n) + k·y(n-1)] with
    [k = 0.5], closed
    through a loop-initialization kernel that provides [y(-1)]. The
    recurrence runs across frame boundaries, matching the continuous-stream
    semantics of the loop. *)

val v :
  ?seed:int ->
  frame:Bp_geometry.Size.t ->
  rate:Bp_geometry.Rate.t ->
  n_frames:int ->
  unit ->
  App.instance
