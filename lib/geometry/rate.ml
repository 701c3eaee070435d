open Bp_util

type t = float

let hz f =
  if (not (Float.is_finite f)) || f <= 0. then
    Err.invalidf "rate %g Hz must be positive and finite" f;
  f

let to_hz t = t
let frame_period_s t = 1. /. t
let element_period_s t ~frame = 1. /. (t *. float_of_int (Size.area frame))
let equal = Float.equal
let pp ppf t = Format.fprintf ppf "%gHz" t
let to_string t = Format.asprintf "%a" pp t
