open Bp_util

type t = { w : int; h : int }

let v w h =
  if w <= 0 || h <= 0 then Err.invalidf "size %dx%d must be positive" w h;
  { w; h }

let one = { w = 1; h = 1 }
let area s = s.w * s.h
let equal a b = a.w = b.w && a.h = b.h

let compare a b =
  match Int.compare a.w b.w with 0 -> Int.compare a.h b.h | c -> c

let add a b = v (a.w + b.w) (a.h + b.h)
let scale s kx ky = v (s.w * kx) (s.h * ky)
let max_pair a b = { w = max a.w b.w; h = max a.h b.h }
let fits_within inner outer = inner.w <= outer.w && inner.h <= outer.h
let pp ppf s = Format.fprintf ppf "(%dx%d)" s.w s.h
let to_string s = Format.asprintf "%a" pp s
