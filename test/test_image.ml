(* Unit and property tests for the image substrate and the golden image
   operations the simulator is checked against. *)

open Block_parallel
open Harness

let gen_small_size =
  QCheck2.Gen.(
    map (fun (w, h) -> Size.v w h) (pair (int_range 1 16) (int_range 1 16)))

let gen_image =
  QCheck2.Gen.(
    map
      (fun (s, seed) ->
        Image.Gen.noise (Prng.create seed) s 100.)
      (pair gen_small_size int))

(* ---- basics ------------------------------------------------------------ *)

let test_create_get_set () =
  let img = Image.create (Size.v 3 2) in
  Alcotest.(check (float 0.)) "zero init" 0. (Image.get img ~x:2 ~y:1);
  Image.set img ~x:2 ~y:1 5.;
  Alcotest.(check (float 0.)) "set/get" 5. (Image.get img ~x:2 ~y:1);
  Alcotest.(check int) "width" 3 (Image.width img);
  Alcotest.(check int) "height" 2 (Image.height img)

let test_bounds_checked () =
  let img = Image.create (Size.v 3 2) in
  List.iter
    (fun (x, y) ->
      try
        ignore (Image.get img ~x ~y);
        Alcotest.failf "expected bounds failure at (%d,%d)" x y
      with Invalid_argument _ -> ())
    [ (-1, 0); (0, -1); (3, 0); (0, 2) ]

let test_init_scanline_order () =
  let img = Image.init (Size.v 3 2) (fun ~x ~y -> float_of_int ((10 * y) + x)) in
  Alcotest.(check (list (float 0.)))
    "scanline" [ 0.; 1.; 2.; 10.; 11.; 12. ]
    (Image.to_scanline_list img)

let test_sub_blit () =
  let img = Image.Gen.ramp (Size.v 6 5) in
  let sub = Image.sub img ~x:2 ~y:1 (Size.v 3 2) in
  Alcotest.(check (float 0.)) "sub content" (Image.get img ~x:2 ~y:1)
    (Image.get sub ~x:0 ~y:0);
  let dst = Image.create (Size.v 6 5) in
  Image.blit ~src:sub ~dst ~x:2 ~y:1;
  Alcotest.(check (float 0.)) "blit back" (Image.get img ~x:4 ~y:2)
    (Image.get dst ~x:4 ~y:2)

let test_copy_isolated () =
  let a = Image.Gen.ramp (Size.v 3 3) in
  let b = Image.copy a in
  Image.set b ~x:0 ~y:0 99.;
  Alcotest.(check (float 0.)) "original untouched" 0. (Image.get a ~x:0 ~y:0)

let test_map_fold () =
  let img = Image.Gen.constant (Size.v 2 2) 3. in
  let doubled = Image.map (fun v -> 2. *. v) img in
  Alcotest.(check (float 0.)) "map" 6. (Image.get doubled ~x:1 ~y:1);
  Alcotest.(check (float 0.)) "fold sum" 24. (Image.fold ( +. ) 0. doubled)

let scanline_roundtrip =
  qtest "scanline list roundtrips" gen_image (fun img ->
      let back =
        Image.of_scanline_list (Image.size img) (Image.to_scanline_list img)
      in
      Image.equal img back)

let sub_matches_get =
  qtest "sub agrees with get"
    QCheck2.Gen.(pair gen_image (pair (int_range 0 3) (int_range 0 3)))
    (fun (img, (dx, dy)) ->
      let w = Image.width img and h = Image.height img in
      QCheck2.assume (w > dx && h > dy);
      let s = Size.v (w - dx) (h - dy) in
      let sub = Image.sub img ~x:dx ~y:dy s in
      Image.get sub ~x:0 ~y:0 = Image.get img ~x:dx ~y:dy)

(* ---- ops --------------------------------------------------------------- *)

let test_convolve_identity () =
  (* A centered delta kernel reproduces the valid region. *)
  let img = Image.Gen.ramp (Size.v 6 6) in
  let delta =
    Image.init (Size.v 3 3) (fun ~x ~y -> if x = 1 && y = 1 then 1. else 0.)
  in
  let out = Image_ops.convolve img ~kernel:delta in
  Alcotest.check size "valid extent" (Size.v 4 4) (Image.size out);
  Alcotest.(check (float 1e-9)) "center passthrough"
    (Image.get img ~x:1 ~y:1) (Image.get out ~x:0 ~y:0)

let test_convolve_box () =
  let img = Image.Gen.constant (Size.v 5 5) 2. in
  let box = Image.Gen.constant (Size.v 3 3) 1. in
  let out = Image_ops.convolve img ~kernel:box in
  Alcotest.(check (float 1e-9)) "box sum" 18. (Image.get out ~x:0 ~y:0)

let test_convolve_flips_kernel () =
  (* An asymmetric kernel must be applied flipped (paper Figure 6). *)
  let img =
    Image.init (Size.v 3 1) (fun ~x ~y:_ -> float_of_int x)
  in
  let k = Image.init (Size.v 3 1) (fun ~x ~y:_ -> if x = 0 then 1. else 0.) in
  (* flipped k picks the rightmost input element *)
  let out = Image_ops.convolve img ~kernel:k in
  Alcotest.(check (float 1e-9)) "flipped" 2. (Image.get out ~x:0 ~y:0)

let test_median () =
  let img =
    Image.of_scanline_list (Size.v 3 3)
      [ 9.; 1.; 8.; 2.; 5.; 7.; 3.; 6.; 4. ]
  in
  let out = Image_ops.median img ~w:3 ~h:3 in
  Alcotest.(check (float 1e-9)) "median of 1..9" 5. (Image.get out ~x:0 ~y:0)

let median_of_constant =
  qtest "median of a constant image is constant"
    QCheck2.Gen.(pair (int_range 3 10) (int_range 3 10))
    (fun (w, h) ->
      let img = Image.Gen.constant (Size.v (w + 2) (h + 2)) 7. in
      let out = Image_ops.median img ~w:3 ~h:3 in
      Image.fold (fun acc v -> acc && v = 7.) true out)

let median_bounded =
  qtest "median lies within the window's range" gen_image (fun img ->
      QCheck2.assume (Image.width img >= 3 && Image.height img >= 3);
      let out = Image_ops.median img ~w:3 ~h:3 in
      let lo = Image.fold Float.min infinity img in
      let hi = Image.fold Float.max neg_infinity img in
      Image.fold (fun acc v -> acc && v >= lo -. 1e-9 && v <= hi +. 1e-9) true out)

let test_subtract_gain () =
  let a = Image.Gen.constant (Size.v 2 2) 5. in
  let b = Image.Gen.constant (Size.v 2 2) 3. in
  Alcotest.(check (float 1e-9)) "subtract" 2.
    (Image.get (Image_ops.subtract a b) ~x:0 ~y:0);
  Alcotest.(check (float 1e-9)) "gain" 10.
    (Image.get (Image_ops.gain a 2.) ~x:1 ~y:1)

let test_histogram_op () =
  let img = Image.of_scanline_list (Size.v 4 1) [ 0.; 1.; 2.; 3. ] in
  let counts = Image_ops.histogram img ~bins:4 ~lo:0. ~hi:4. in
  Alcotest.(check (array (float 0.))) "one per bin" [| 1.; 1.; 1.; 1. |] counts;
  (* Out-of-range clamps to end bins. *)
  let img2 = Image.of_scanline_list (Size.v 2 1) [ -5.; 99. ] in
  let counts2 = Image_ops.histogram img2 ~bins:4 ~lo:0. ~hi:4. in
  Alcotest.(check (float 0.)) "clamped low" 1. counts2.(0);
  Alcotest.(check (float 0.)) "clamped high" 1. counts2.(3)

let test_trim_pad_inverse () =
  let img = Image.Gen.ramp (Size.v 6 5) in
  let padded = Image_ops.pad_zero img ~left:2 ~right:1 ~top:1 ~bottom:3 in
  Alcotest.check size "pad extent" (Size.v 9 9) (Image.size padded);
  let trimmed = Image_ops.trim padded ~left:2 ~right:1 ~top:1 ~bottom:3 in
  Alcotest.check image "trim inverts pad" img trimmed;
  Alcotest.(check (float 0.)) "margin is zero" 0.
    (Image.get padded ~x:0 ~y:0)

let test_downsample () =
  let img = Image.Gen.ramp (Size.v 5 4) in
  let out = Image_ops.downsample img ~fx:2 ~fy:2 in
  Alcotest.check size "extent" (Size.v 3 2) (Image.size out);
  Alcotest.(check (float 0.)) "picks strided" (Image.get img ~x:2 ~y:2)
    (Image.get out ~x:1 ~y:1)

let test_bayer_demosaic_green_sites () =
  (* On a constant mosaic every interpolation returns the constant. *)
  let img = Image.Gen.constant (Size.v 8 6) 9. in
  let r, g, b = Image_ops.bayer_demosaic img in
  List.iter
    (fun plane ->
      Image.iter_pixels
        (fun ~x:_ ~y:_ v -> Alcotest.(check (float 1e-9)) "constant" 9. v)
        plane)
    [ r; g; b ]

(* A box blur is a convolution with uniform coefficients — the image
   pipeline's 5×5 filter. *)
let test_box_blur () =
  let img = Image.Gen.constant (Size.v 5 5) 6. in
  let kernel = Image.Gen.constant (Size.v 3 3) (1. /. 9.) in
  let out = Image_ops.convolve img ~kernel in
  Alcotest.(check (float 1e-9)) "mean preserved" 6. (Image.get out ~x:1 ~y:1)

let convolve_linear =
  qtest "convolution is linear in the image"
    QCheck2.Gen.(pair gen_image (float_range (-2.) 2.))
    (fun (img, k) ->
      QCheck2.assume (Image.width img >= 3 && Image.height img >= 3);
      let kern = Image.Gen.constant (Size.v 3 3) 0.5 in
      let a = Image_ops.convolve (Image_ops.gain img k) ~kernel:kern in
      let b = Image_ops.gain (Image_ops.convolve img ~kernel:kern) k in
      Image.max_abs_diff a b < 1e-6)

let histogram_total =
  qtest "histogram counts every pixel once" gen_image (fun img ->
      let counts = Image_ops.histogram img ~bins:8 ~lo:0. ~hi:100. in
      let total = Array.fold_left ( +. ) 0. counts in
      total = float_of_int (Size.area (Image.size img)))

let gen_frames =
  QCheck2.Gen.(
    map
      (fun (s, n) -> Image.Gen.frame_sequence ~seed:5 s n)
      (pair gen_small_size (int_range 1 4)))

let frame_sequence_distinct =
  qtest "generated frames are deterministic and sized" gen_frames (fun frames ->
      let again =
        Image.Gen.frame_sequence ~seed:5
          (Image.size (List.hd frames))
          (List.length frames)
      in
      List.for_all2 Image.equal frames again)

let suite =
  [
    Alcotest.test_case "image: create/get/set" `Quick test_create_get_set;
    Alcotest.test_case "image: bounds" `Quick test_bounds_checked;
    Alcotest.test_case "image: scanline order" `Quick test_init_scanline_order;
    Alcotest.test_case "image: sub/blit" `Quick test_sub_blit;
    Alcotest.test_case "image: copy isolation" `Quick test_copy_isolated;
    Alcotest.test_case "image: map/fold" `Quick test_map_fold;
    Alcotest.test_case "ops: delta convolution" `Quick test_convolve_identity;
    Alcotest.test_case "ops: box convolution" `Quick test_convolve_box;
    Alcotest.test_case "ops: kernel flipped" `Quick test_convolve_flips_kernel;
    Alcotest.test_case "ops: median" `Quick test_median;
    Alcotest.test_case "ops: subtract/gain" `Quick test_subtract_gain;
    Alcotest.test_case "ops: histogram" `Quick test_histogram_op;
    Alcotest.test_case "ops: trim inverts pad" `Quick test_trim_pad_inverse;
    Alcotest.test_case "ops: downsample" `Quick test_downsample;
    Alcotest.test_case "ops: bayer on constant" `Quick
      test_bayer_demosaic_green_sites;
    Alcotest.test_case "ops: box blur" `Quick test_box_blur;
    scanline_roundtrip;
    sub_matches_get;
    median_of_constant;
    median_bounded;
    convolve_linear;
    histogram_total;
    frame_sequence_distinct;
  ]
