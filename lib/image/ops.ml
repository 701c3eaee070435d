open Bp_geometry

let valid_extent img ~w ~h =
  let iw = Image.width img and ih = Image.height img in
  if iw < w || ih < h then
    invalid_arg
      (Printf.sprintf "Ops: %dx%d filter does not fit in %dx%d image" w h iw
         ih);
  Size.v (iw - w + 1) (ih - h + 1)

let check_dst name dst (expect : Size.t) =
  if Image.width dst <> expect.w || Image.height dst <> expect.h then
    invalid_arg
      (Printf.sprintf "Ops.%s: destination is %dx%d, expected %dx%d" name
         (Image.width dst) (Image.height dst) expect.w expect.h)

let convolve_into img ~kernel ~dst:out =
  let kw = Image.width kernel and kh = Image.height kernel in
  check_dst "convolve_into" out (valid_extent img ~w:kw ~h:kh);
  (* Raw-array loop: this is the simulator's hottest computation, and the
     checked accessors would box two floats per multiply (no flambda). The
     accumulation order matches the original accessor-based loop exactly,
     so results are bit-identical. *)
  let src = Image.unsafe_data img
  and ker = Image.unsafe_data kernel
  and dst = Image.unsafe_data out in
  let iw = Image.width img in
  let ow = Image.width out and oh = Image.height out in
  for oy = 0 to oh - 1 do
    for ox = 0 to ow - 1 do
      let acc = ref 0. in
      for ky = 0 to kh - 1 do
        (* Coefficients are applied flipped, as in the paper's Figure 6
           ([coeff[width-x-1][height-y-1]]). *)
        let src_row = ((oy + ky) * iw) + ox in
        let ker_row = (kh - ky - 1) * kw in
        for kx = 0 to kw - 1 do
          acc :=
            !acc
            +. Array.unsafe_get src (src_row + kx)
               *. Array.unsafe_get ker (ker_row + (kw - kx - 1))
        done
      done;
      Array.unsafe_set dst ((oy * ow) + ox) !acc
    done
  done

let convolve img ~kernel =
  let kw = Image.width kernel and kh = Image.height kernel in
  let out = Image.create (valid_extent img ~w:kw ~h:kh) in
  convolve_into img ~kernel ~dst:out;
  out

let median_into ?scratch img ~w ~h ~dst:out =
  check_dst "median_into" out (valid_extent img ~w ~h);
  let window =
    match scratch with
    | Some a when Array.length a = w * h -> a
    | Some _ -> invalid_arg "Ops.median_into: scratch length must be w*h"
    | None -> Array.make (w * h) 0.
  in
  let src = Image.unsafe_data img and dst = Image.unsafe_data out in
  let iw = Image.width img in
  let ow = Image.width out and oh = Image.height out in
  let n = w * h in
  for oy = 0 to oh - 1 do
    for ox = 0 to ow - 1 do
      let i = ref 0 in
      for ky = 0 to h - 1 do
        let base = ((oy + ky) * iw) + ox in
        for kx = 0 to w - 1 do
          window.(!i) <- Array.unsafe_get src (base + kx);
          incr i
        done
      done;
      (* Insertion sort on the raw floats: [Array.sort Float.compare]
         would box both operands of every comparison. The sorted value
         sequence is the same either way (pixel data carries no NaNs). *)
      for k = 1 to n - 1 do
        let v = window.(k) in
        let j = ref (k - 1) in
        while !j >= 0 && window.(!j) > v do
          window.(!j + 1) <- window.(!j);
          decr j
        done;
        window.(!j + 1) <- v
      done;
      let m =
        if n mod 2 = 1 then window.(n / 2)
        else (window.((n / 2) - 1) +. window.(n / 2)) /. 2.
      in
      Array.unsafe_set dst ((oy * ow) + ox) m
    done
  done

let median img ~w ~h =
  let out = Image.create (valid_extent img ~w ~h) in
  median_into img ~w ~h ~dst:out;
  out

let subtract a b = Image.map2 ( -. ) a b
let subtract_into a b ~dst =
  if Image.width a <> Image.width b || Image.height a <> Image.height b then
    invalid_arg "Ops.subtract_into: extent mismatch";
  check_dst "subtract_into" dst (Image.size a);
  let pa = Image.unsafe_data a
  and pb = Image.unsafe_data b
  and pd = Image.unsafe_data dst in
  for i = 0 to Array.length pd - 1 do
    Array.unsafe_set pd i (Array.unsafe_get pa i -. Array.unsafe_get pb i)
  done
let gain img k = Image.map (fun v -> v *. k) img

let histogram img ~bins ~lo ~hi =
  if bins <= 0 then invalid_arg "Ops.histogram: bins must be positive";
  if not (hi > lo) then invalid_arg "Ops.histogram: empty range";
  let counts = Array.make bins 0. in
  let width = (hi -. lo) /. float_of_int bins in
  Image.iter_pixels
    (fun ~x:_ ~y:_ v ->
      let b = int_of_float (Float.floor ((v -. lo) /. width)) in
      let b = Bp_util.Stats.clamp ~lo:0 ~hi:(bins - 1) b in
      counts.(b) <- counts.(b) +. 1.)
    img;
  counts

let trim img ~left ~right ~top ~bottom =
  let w = Image.width img - left - right in
  let h = Image.height img - top - bottom in
  if w <= 0 || h <= 0 then invalid_arg "Ops.trim: nothing left";
  Image.sub img ~x:left ~y:top (Size.v w h)

let pad_with img ~left ~right ~top ~bottom pixel_of =
  let w = Image.width img and h = Image.height img in
  let out = Image.create (Size.v (w + left + right) (h + top + bottom)) in
  Image.iter_pixels
    (fun ~x ~y _ ->
      let sx = x - left and sy = y - top in
      Image.set out ~x ~y (pixel_of sx sy))
    out;
  out

let pad_zero img ~left ~right ~top ~bottom =
  let w = Image.width img and h = Image.height img in
  pad_with img ~left ~right ~top ~bottom (fun sx sy ->
      if sx >= 0 && sy >= 0 && sx < w && sy < h then Image.get img ~x:sx ~y:sy
      else 0.)

let downsample_extent img ~fx ~fy =
  if fx <= 0 || fy <= 0 then invalid_arg "Ops.downsample: factors positive";
  let w = (Image.width img + fx - 1) / fx in
  let h = (Image.height img + fy - 1) / fy in
  Size.v w h

let downsample_into img ~fx ~fy ~dst =
  check_dst "downsample_into" dst (downsample_extent img ~fx ~fy);
  let src = Image.unsafe_data img and out = Image.unsafe_data dst in
  let iw = Image.width img in
  let dw = Image.width dst and dh = Image.height dst in
  for y = 0 to dh - 1 do
    let src_row = y * fy * iw in
    for x = 0 to dw - 1 do
      Array.unsafe_set out ((y * dw) + x)
        (Array.unsafe_get src (src_row + (x * fx)))
    done
  done

let downsample img ~fx ~fy =
  if fx <= 0 || fy <= 0 then invalid_arg "Ops.downsample: factors positive";
  let w = (Image.width img + fx - 1) / fx in
  let h = (Image.height img + fy - 1) / fy in
  Image.init (Size.v w h) (fun ~x ~y -> Image.get img ~x:(x * fx) ~y:(y * fy))

let bayer_demosaic raw =
  let w = Image.width raw and h = Image.height raw in
  if w < 3 || h < 3 then invalid_arg "Ops.bayer_demosaic: image too small";
  let out_size = Size.v (w - 2) (h - 2) in
  let red = Image.create out_size
  and green = Image.create out_size
  and blue = Image.create out_size in
  let g = Image.get raw in
  for oy = 0 to h - 3 do
    for ox = 0 to w - 3 do
      let x = ox + 1 and y = oy + 1 in
      let r, gr, b =
        match (x mod 2, y mod 2) with
        | 0, 0 ->
          (* red site *)
          ( g ~x ~y,
            (g ~x:(x - 1) ~y +. g ~x:(x + 1) ~y +. g ~x ~y:(y - 1)
            +. g ~x ~y:(y + 1))
            /. 4.,
            (g ~x:(x - 1) ~y:(y - 1)
            +. g ~x:(x + 1) ~y:(y - 1)
            +. g ~x:(x - 1) ~y:(y + 1)
            +. g ~x:(x + 1) ~y:(y + 1))
            /. 4. )
        | 1, 1 ->
          (* blue site *)
          ( (g ~x:(x - 1) ~y:(y - 1)
            +. g ~x:(x + 1) ~y:(y - 1)
            +. g ~x:(x - 1) ~y:(y + 1)
            +. g ~x:(x + 1) ~y:(y + 1))
            /. 4.,
            (g ~x:(x - 1) ~y +. g ~x:(x + 1) ~y +. g ~x ~y:(y - 1)
            +. g ~x ~y:(y + 1))
            /. 4.,
            g ~x ~y )
        | 1, 0 ->
          (* green site on a red row *)
          ( (g ~x:(x - 1) ~y +. g ~x:(x + 1) ~y) /. 2.,
            g ~x ~y,
            (g ~x ~y:(y - 1) +. g ~x ~y:(y + 1)) /. 2. )
        | _ ->
          (* green site on a blue row *)
          ( (g ~x ~y:(y - 1) +. g ~x ~y:(y + 1)) /. 2.,
            g ~x ~y,
            (g ~x:(x - 1) ~y +. g ~x:(x + 1) ~y) /. 2. )
      in
      Image.set red ~x:ox ~y:oy r;
      Image.set green ~x:ox ~y:oy gr;
      Image.set blue ~x:ox ~y:oy b
    done
  done;
  (red, green, blue)
