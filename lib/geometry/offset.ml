open Bp_util

type t = { ox : float; oy : float }

let v ox oy =
  let bad f = (not (Float.is_finite f)) || f < 0. in
  if bad ox || bad oy then Err.invalidf "offset [%g,%g] must be finite and non-negative" ox oy;
  { ox; oy }

let zero = { ox = 0.; oy = 0. }

let centered (s : Size.t) =
  v (float_of_int (s.w / 2)) (float_of_int (s.h / 2))

let pp ppf o = Format.fprintf ppf "[%.1f,%.1f]" o.ox o.oy
