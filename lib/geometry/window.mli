(** Windowed-access parameterization.

    A window bundles the size, step and offset of one kernel input or output
    — the complete data-access description of the block-parallel model
    (Section II-A of the paper). Together with the fixed scan-line ordering
    it fully determines data movement, reuse, and iteration counts. *)

type t = { size : Size.t; step : Step.t; offset : Offset.t }

val v : ?offset:Offset.t -> ?step:Step.t -> Size.t -> t
(** [v size] is a window with step [1,1] and offset [0.0,0.0] unless
    overridden. A step larger than the size is legal and expresses
    downsampling (elements between windows are skipped). *)

val pixel : t
(** The 1×1 window with unit step — how plain sample streams are typed. *)

val windowed : int -> int -> t
(** [windowed w h] is a [w]×[h] sliding window, unit step, centered offset —
    the common case for image filters. *)

val block : int -> int -> t
(** [block w h] is a [w]×[h] window with non-overlapping step (step = size)
    and zero offset — e.g. a histogram's bin output. *)

val halo : t -> int * int
(** [halo w] is [(size.w - step.sx, size.h - step.sy)]: the total number of
    border elements in each dimension that the window consumes beyond its
    step. A 5×5 window with unit step has a halo of [(4,4)]. *)

val iterations : t -> frame:Size.t -> Size.t
(** [iterations w ~frame] is how many times the window fires in X and Y when
    slid over a [frame] in scan-line order:
    [floor((frame - size) / step) + 1] per dimension. Fails with
    {!Bp_util.Err.Rate_mismatch} when the frame is smaller than the window. *)

val extent_for_iterations : t -> Size.t -> Size.t
(** [extent_for_iterations w n] is the frame extent the window covers when
    fired [n.w]×[n.h] times: [size + (n-1)*step] per dimension. Inverse of
    {!iterations} for exact fits. *)

val elements_consumed_per_fire : t -> int
(** Words read from the channel each firing (= window area). *)

val new_elements_per_fire : t -> int
(** In the 2-D steady state (rows and columns reused), the number of
    elements per firing that were never seen before: [step.sx * step.sy],
    capped at the window area. *)

val reuse_fraction : t -> float
(** [reuse_fraction w] is the steady-state fraction of the window that is
    reused from previous iterations: [1 - new/area]. A 5×5 unit-step window
    reuses 24/25 = 0.96 (Figure 5(b)). *)

val to_string : t -> string
(** Prints as ["(WxH)[sx,sy]@[ox,oy]"]. *)
