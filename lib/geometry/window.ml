open Bp_util

type t = { size : Size.t; step : Step.t; offset : Offset.t }

let v ?(offset = Offset.zero) ?(step = Step.one) (size : Size.t) =
  (* Steps larger than the window are legal: they express downsampling
     (elements between windows are deliberately skipped). *)
  { size; step; offset }

let pixel = v Size.one
let windowed w h = v ~offset:(Offset.centered (Size.v w h)) (Size.v w h)
let block w h = v ~step:(Step.v w h) (Size.v w h)
let halo t = (t.size.w - t.step.sx, t.size.h - t.step.sy)

let iterations t ~(frame : Size.t) =
  if not (Size.fits_within t.size frame) then
    Err.ratef "frame %s is smaller than window %s" (Size.to_string frame)
      (Size.to_string t.size);
  Size.v
    (((frame.w - t.size.w) / t.step.sx) + 1)
    (((frame.h - t.size.h) / t.step.sy) + 1)

let extent_for_iterations t (n : Size.t) =
  Size.v
    (t.size.w + ((n.w - 1) * t.step.sx))
    (t.size.h + ((n.h - 1) * t.step.sy))

let elements_consumed_per_fire t = Size.area t.size

let new_elements_per_fire t =
  min (t.step.sx * t.step.sy) (Size.area t.size)

let reuse_fraction t =
  let area = float_of_int (Size.area t.size) in
  1. -. (float_of_int (new_elements_per_fire t) /. area)

let pp ppf t =
  Format.fprintf ppf "%a%a@@%a" Size.pp t.size Step.pp t.step Offset.pp
    t.offset

let to_string t = Format.asprintf "%a" pp t
