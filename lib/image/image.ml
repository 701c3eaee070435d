open Bp_geometry

type t = { w : int; h : int; data : float array }

let create (s : Size.t) = { w = s.w; h = s.h; data = Array.make (s.w * s.h) 0. }

let init (s : Size.t) f =
  let data =
    Array.init (s.w * s.h) (fun i -> f ~x:(i mod s.w) ~y:(i / s.w))
  in
  { w = s.w; h = s.h; data }

let width t = t.w
let height t = t.h
let size t = Size.v t.w t.h
let unsafe_data t = t.data

let check t x y =
  if x < 0 || y < 0 || x >= t.w || y >= t.h then
    invalid_arg
      (Printf.sprintf "Image: pixel (%d,%d) outside %dx%d" x y t.w t.h)

let get t ~x ~y =
  check t x y;
  Array.unsafe_get t.data ((y * t.w) + x)

let set t ~x ~y v =
  check t x y;
  Array.unsafe_set t.data ((y * t.w) + x) v

let copy t = { t with data = Array.copy t.data }

let sub t ~x ~y (s : Size.t) =
  if x < 0 || y < 0 || x + s.w > t.w || y + s.h > t.h then
    invalid_arg
      (Printf.sprintf "Image.sub: window %dx%d@(%d,%d) escapes %dx%d" s.w s.h
         x y t.w t.h);
  let out = create s in
  for j = 0 to s.h - 1 do
    Array.blit t.data (((y + j) * t.w) + x) out.data (j * s.w) s.w
  done;
  out

let blit ~src ~dst ~x ~y =
  if x < 0 || y < 0 || x + src.w > dst.w || y + src.h > dst.h then
    invalid_arg "Image.blit: source escapes destination";
  for j = 0 to src.h - 1 do
    Array.blit src.data (j * src.w) dst.data (((y + j) * dst.w) + x) src.w
  done

let fill t v = Array.fill t.data 0 (Array.length t.data) v
let map f t = { t with data = Array.map f t.data }

let map_into f ~src ~dst =
  if src.w <> dst.w || src.h <> dst.h then
    invalid_arg "Image.map_into: extent mismatch";
  for i = 0 to Array.length src.data - 1 do
    Array.unsafe_set dst.data i (f (Array.unsafe_get src.data i))
  done

let map2 f a b =
  if a.w <> b.w || a.h <> b.h then invalid_arg "Image.map2: extent mismatch";
  { a with data = Array.map2 f a.data b.data }

let map2_into f a b ~dst =
  if a.w <> b.w || a.h <> b.h || a.w <> dst.w || a.h <> dst.h then
    invalid_arg "Image.map2_into: extent mismatch";
  for i = 0 to Array.length a.data - 1 do
    Array.unsafe_set dst.data i
      (f (Array.unsafe_get a.data i) (Array.unsafe_get b.data i))
  done

let fold f acc t = Array.fold_left f acc t.data

let iter_pixels f t =
  Array.iteri (fun i v -> f ~x:(i mod t.w) ~y:(i / t.w) v) t.data

let to_scanline_list t = Array.to_list t.data

let of_scanline_list (s : Size.t) pixels =
  let data = Array.of_list pixels in
  if Array.length data <> s.w * s.h then
    invalid_arg "Image.of_scanline_list: wrong number of pixels";
  { w = s.w; h = s.h; data }

let equal ?(eps = 1e-9) a b =
  a.w = b.w && a.h = b.h
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a.data b.data

let max_abs_diff a b =
  if a.w <> b.w || a.h <> b.h then
    invalid_arg "Image.max_abs_diff: extent mismatch";
  Array.fold_left max 0.
    (Array.map2 (fun x y -> Float.abs (x -. y)) a.data b.data)

let psnr ?peak reference t =
  if reference.w <> t.w || reference.h <> t.h then
    invalid_arg "Image.psnr: extent mismatch";
  let peak =
    match peak with
    | Some p -> p
    | None ->
      Float.max 1. (Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. reference.data)
  in
  let n = Array.length reference.data in
  let mse = ref 0. in
  for i = 0 to n - 1 do
    let d = reference.data.(i) -. t.data.(i) in
    mse := !mse +. (d *. d)
  done;
  let mse = !mse /. float_of_int n in
  if mse = 0. then infinity
  else 10. *. Float.log10 (peak *. peak /. mse)

let pp ppf t =
  Format.fprintf ppf "image %dx%d [%g .. %g]" t.w t.h
    (get t ~x:0 ~y:0)
    (get t ~x:(t.w - 1) ~y:(t.h - 1))

module Gen = struct
  let ramp (s : Size.t) = init s (fun ~x ~y -> float_of_int (x + (y * s.w)))
  let constant s v = init s (fun ~x:_ ~y:_ -> v)

  let checkerboard s a b =
    init s (fun ~x ~y -> if (x + y) mod 2 = 0 then a else b)

  let gradient (s : Size.t) =
    init s (fun ~x ~y:_ ->
        if s.w = 1 then 0. else float_of_int x /. float_of_int (s.w - 1))

  let noise rng s amp = init s (fun ~x:_ ~y:_ -> Bp_util.Prng.float rng amp)

  let frame_sequence ~seed s n =
    let rng = Bp_util.Prng.create seed in
    List.init n (fun k ->
        let base = float_of_int (k + 1) in
        let jitter = Bp_util.Prng.float rng 1. in
        init s (fun ~x ~y ->
            base +. jitter +. (0.25 *. float_of_int x)
            +. (0.125 *. float_of_int y)))
end
