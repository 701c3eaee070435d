open Bp_util

type t = { sx : int; sy : int }

let v sx sy =
  if sx <= 0 || sy <= 0 then Err.invalidf "step [%d,%d] must be positive" sx sy;
  { sx; sy }

let one = { sx = 1; sy = 1 }
let of_size (s : Size.t) = v s.w s.h
let equal a b = a.sx = b.sx && a.sy = b.sy

let pp ppf s = Format.fprintf ppf "[%d,%d]" s.sx s.sy
