(** The parameterized buffer kernel (Section III-B).

    A buffer adapts chunk shapes between kernels: it accepts non-overlapping
    input blocks (usually single pixels) tiling a known frame in scan-line
    order, stores them in a two-dimensional circular row buffer, and emits
    the consumer's windows — including overlapped sliding windows and
    downsampling windows — in scan-line order.

    Storage follows the paper's sizing rule: double-buffer the larger of the
    input and output windows, i.e. [frame_width × 2·max(in_h, out_h)] words
    (the "[20x10]" labels of Figures 3-4). The implementation really is
    circular — reading a row that has been overwritten is a hard error — so
    the sizing rule is validated by execution, not assumed.

    Tokens: incoming EOL/EOF are consumed (EOF additionally resets the frame
    state); the buffer emits its own end-of-frame after the last window of
    each frame, and optionally its own end-of-line after each window row
    ([emit_eol], default off — see DESIGN.md on token alignment). *)

type config = {
  in_block : Bp_geometry.Size.t;
      (** Input chunk extent; must tile [frame] exactly. *)
  out_window : Bp_geometry.Window.t;  (** Window the consumer needs. *)
  frame : Bp_geometry.Size.t;  (** Extent of one input frame. *)
  emit_eol : bool;
}

val config :
  ?emit_eol:bool ->
  ?in_block:Bp_geometry.Size.t ->
  out_window:Bp_geometry.Window.t ->
  frame:Bp_geometry.Size.t ->
  unit ->
  config
(** [in_block] defaults to 1×1. Fails with
    {!Bp_util.Err.Invalid_parameterization} when the block does not tile the
    frame or the window does not fit in the frame. *)

val storage : config -> Bp_geometry.Size.t
(** The allocated circular storage extent ([frame.w] ×
    [2·max(in_block.h, out_window.size.h)]). *)

val storage_words : config -> int

val spec : ?class_name:string -> config -> Bp_kernel.Spec.t
(** Builds the kernel: input ["in"], output ["out"]. The class name defaults
    to the paper's label style,
    ["Buffer \[20x10\] (1x1)->(5x5)"]. *)
