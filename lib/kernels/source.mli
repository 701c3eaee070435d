(** Application inputs.

    A [Source] streams frames pixel-by-pixel in scan-line order at a fixed
    real-time rate, inserting end-of-line and end-of-frame tokens as the
    paper's data inputs do. The simulator drives source behaviours on the
    rate's schedule (one attempt per element period); the behaviour itself
    only knows what to emit next.

    A [Const_source] provides configuration data (convolution coefficients,
    histogram bin bounds): it emits its chunk exactly once at start-up and
    carries no tokens. *)

val spec :
  ?emit_eol:bool ->
  ?class_name:string ->
  frame:Bp_geometry.Size.t ->
  frames:Bp_image.Image.t list ->
  unit ->
  Bp_kernel.Spec.t
(** [spec ~frame ~frames ()] emits each image of [frames] (all must have
    extent [frame]) as a 1×1 pixel stream with tokens. After the last frame
    the source is exhausted. *)

val const :
  ?class_name:string -> chunk:Bp_image.Image.t -> unit -> Bp_kernel.Spec.t
(** [const ~chunk ()] is a constant source emitting [chunk] once. *)

val emission_burst : int
(** The worst-case items one emission pushes (pixel + end-of-line +
    end-of-frame at a frame corner). A source only fires with this much
    space on its output, and declares the same bound as
    [Spec.emission_burst] so the simulator's blocked-vs-exhausted test is
    exact rather than a duplicated magic number. *)
