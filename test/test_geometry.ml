(* Unit and property tests for the geometry layer: sizes, steps, offsets,
   windows, insets, rates — the math every analysis rests on. *)

open Block_parallel
open Harness

(* ---- generators -------------------------------------------------------- *)

let gen_size =
  QCheck2.Gen.(
    map (fun (w, h) -> Size.v w h) (pair (int_range 1 64) (int_range 1 64)))

let gen_window =
  (* Window of size <= 8, step <= size+3 (downsampling allowed), centered
     or zero offset. *)
  QCheck2.Gen.(
    map
      (fun ((w, h), (sx, sy), centered) ->
        let size = Size.v w h in
        let offset = if centered then Offset.centered size else Offset.zero in
        Window.v ~offset ~step:(Step.v sx sy) size)
      (triple
         (pair (int_range 1 8) (int_range 1 8))
         (pair (int_range 1 10) (int_range 1 10))
         bool))

(* ---- Size -------------------------------------------------------------- *)

let test_size_basic () =
  let s = Size.v 4 3 in
  Alcotest.(check int) "area" 12 (Size.area s);
  Alcotest.check size "one" (Size.v 1 1) Size.one;
  Alcotest.check size "add" (Size.v 6 5) (Size.add s (Size.v 2 2));
  Alcotest.check size "scale" (Size.v 8 9) (Size.scale s 2 3);
  Alcotest.check size "max_pair" (Size.v 4 7) (Size.max_pair s (Size.v 2 7));
  Alcotest.(check bool) "fits" true (Size.fits_within (Size.v 2 2) s);
  Alcotest.(check bool) "does not fit" false (Size.fits_within s (Size.v 2 2));
  Alcotest.(check string) "render" "(4x3)" (Size.to_string s)

let test_size_invalid () =
  expect_error (Err.Invalid_parameterization "") (fun () -> Size.v 0 3);
  expect_error (Err.Invalid_parameterization "") (fun () -> Size.v 3 (-1))

let test_size_compare () =
  Alcotest.(check bool) "ordering" true (Size.compare (Size.v 1 9) (Size.v 2 1) < 0);
  Alcotest.(check int) "equal" 0 (Size.compare (Size.v 3 3) (Size.v 3 3))

(* ---- Step / Offset ----------------------------------------------------- *)

let test_step () =
  Alcotest.(check bool) "of_size" true
    (Step.equal (Step.of_size (Size.v 4 5)) (Step.v 4 5));
  expect_error (Err.Invalid_parameterization "") (fun () -> Step.v 0 1)

let test_offset () =
  let c = Offset.centered (Size.v 5 5) in
  Alcotest.(check (float 1e-9)) "centered x" 2. c.Offset.ox;
  Alcotest.(check (float 1e-9)) "centered y" 2. c.Offset.oy;
  let c4 = Offset.centered (Size.v 4 4) in
  Alcotest.(check (float 1e-9)) "even floor" 2. c4.Offset.ox;
  expect_error (Err.Invalid_parameterization "") (fun () -> Offset.v (-1.) 0.);
  expect_error (Err.Invalid_parameterization "") (fun () -> Offset.v nan 0.)

(* ---- Window ------------------------------------------------------------ *)

let test_window_iterations_paper_example () =
  (* The paper's worked example: a 5x5 convolution over a 100x100 input has
     a 4x4 halo and iterates 96x96 (Section III-A). *)
  let w = Conv.input_window ~w:5 ~h:5 in
  Alcotest.(check (pair int int)) "halo" (4, 4) (Window.halo w);
  Alcotest.check size "iterations" (Size.v 96 96)
    (Window.iterations w ~frame:(Size.v 100 100))

let test_window_iterations_edges () =
  let w = Window.windowed 3 3 in
  Alcotest.check size "exact fit" (Size.v 1 1)
    (Window.iterations w ~frame:(Size.v 3 3));
  expect_error (Err.Rate_mismatch "") (fun () ->
      Window.iterations w ~frame:(Size.v 2 5))

let test_window_downsample () =
  let w = Window.v ~step:(Step.v 2 2) Size.one in
  Alcotest.check size "decimation grid" (Size.v 5 4)
    (Window.iterations w ~frame:(Size.v 10 8));
  Alcotest.(check (float 1e-9)) "no reuse" 0. (Window.reuse_fraction w)

let test_window_reuse_paper () =
  (* Figure 5(b): 24 of 25 elements reused in steady state. *)
  let w = Conv.input_window ~w:5 ~h:5 in
  Alcotest.(check int) "consumed" 25 (Window.elements_consumed_per_fire w);
  Alcotest.(check int) "new" 1 (Window.new_elements_per_fire w);
  Alcotest.(check (float 1e-9)) "reuse" (24. /. 25.) (Window.reuse_fraction w)

let test_window_block_no_reuse () =
  let w = Window.block 5 5 in
  Alcotest.(check (float 1e-9)) "block reuse" 0. (Window.reuse_fraction w);
  Alcotest.(check (pair int int)) "block halo" (0, 0) (Window.halo w)

let window_iterations_extent_inverse =
  qtest "extent_for_iterations inverts iterations"
    QCheck2.Gen.(pair gen_window gen_size)
    (fun (w, n) ->
      let extent = Window.extent_for_iterations w n in
      Size.equal (Window.iterations w ~frame:extent) n)

let window_iterations_monotone =
  qtest "bigger frames never reduce iterations"
    QCheck2.Gen.(pair gen_window gen_size)
    (fun (w, frame) ->
      let frame =
        Size.max_pair frame w.Window.size (* ensure the window fits *)
      in
      let bigger = Size.add frame (Size.v 3 2) in
      let a = Window.iterations w ~frame in
      let b = Window.iterations w ~frame:bigger in
      b.Size.w >= a.Size.w && b.Size.h >= a.Size.h)

let window_reuse_bounds =
  qtest "reuse fraction in [0,1)" gen_window (fun w ->
      let r = Window.reuse_fraction w in
      r >= 0. && r < 1.)

(* ---- Inset ------------------------------------------------------------- *)

let test_inset_of_window () =
  (* Centered 5x5: inset 2 on every side; centered 3x3: inset 1. *)
  Alcotest.check inset "conv inset" (Inset.uniform 2.)
    (Inset.of_window (Conv.input_window ~w:5 ~h:5));
  Alcotest.check inset "median inset" (Inset.uniform 1.)
    (Inset.of_window (Window.windowed 3 3));
  Alcotest.check inset "pixel inset" Inset.zero
    (Inset.of_window Window.pixel)

let test_inset_zero_offset_window () =
  (* A 3x3 window with zero offset puts the whole halo on the right and
     bottom. *)
  let i = Inset.of_window (Window.v (Size.v 3 3)) in
  Alcotest.check inset "asymmetric"
    (Inset.v ~left:0. ~right:2. ~top:0. ~bottom:2.)
    i

let test_inset_algebra () =
  let a = Inset.uniform 1. and b = Inset.v ~left:2. ~right:0. ~top:1. ~bottom:3. in
  Alcotest.check inset "add"
    (Inset.v ~left:3. ~right:1. ~top:2. ~bottom:4.)
    (Inset.add a b);
  Alcotest.check inset "union"
    (Inset.v ~left:2. ~right:1. ~top:1. ~bottom:3.)
    (Inset.union a b);
  Alcotest.(check bool) "dominates self" true (Inset.dominates b b);
  Alcotest.(check bool) "union dominates both" true
    (Inset.dominates (Inset.union a b) a && Inset.dominates (Inset.union a b) b)

let test_inset_diff_and_shrink () =
  let target = Inset.uniform 2. and have = Inset.uniform 1. in
  let d = Inset.diff ~target have in
  Alcotest.check inset "diff" (Inset.uniform 1.) d;
  let l, r, t, b = Inset.to_int_sides d in
  Alcotest.(check (list int)) "sides" [ 1; 1; 1; 1 ] [ l; r; t; b ];
  Alcotest.check size "shrink" (Size.v 8 6)
    (Inset.shrink_size (Size.v 10 8) d)

let test_inset_fractional_rejects () =
  expect_error (Err.Alignment_error "") (fun () ->
      Inset.to_int_sides (Inset.uniform 0.5))

let gen_inset =
  QCheck2.Gen.(
    map
      (fun (l, r, t, b) ->
        Inset.v ~left:(float_of_int l) ~right:(float_of_int r)
          ~top:(float_of_int t) ~bottom:(float_of_int b))
      (quad (int_range 0 5) (int_range 0 5) (int_range 0 5) (int_range 0 5)))

let inset_union_commutative =
  qtest "inset union commutes" QCheck2.Gen.(pair gen_inset gen_inset)
    (fun (a, b) -> Inset.equal (Inset.union a b) (Inset.union b a))

let inset_union_idempotent =
  qtest "inset union idempotent" gen_inset (fun a ->
      Inset.equal (Inset.union a a) a)

let inset_diff_roundtrip =
  qtest "add (diff target a) a = target when target dominates"
    QCheck2.Gen.(pair gen_inset gen_inset)
    (fun (a, b) ->
      let target = Inset.union a b in
      Inset.equal (Inset.add a (Inset.diff ~target a)) target)

(* ---- Rate -------------------------------------------------------------- *)

let test_rate () =
  let r = Rate.hz 50. in
  Alcotest.(check (float 1e-12)) "period" 0.02 (Rate.frame_period_s r);
  Alcotest.(check (float 1e-12)) "element period"
    (1. /. (50. *. 100.))
    (Rate.element_period_s r ~frame:(Size.v 10 10));
  expect_error (Err.Invalid_parameterization "") (fun () -> Rate.hz 0.);
  expect_error (Err.Invalid_parameterization "") (fun () -> Rate.hz (-3.))

(* ---- Reuse analysis (Figure 5) ---------------------------------------- *)

let test_reuse_module () =
  let r = Reuse.of_window (Conv.input_window ~w:5 ~h:5) in
  Alcotest.(check int) "read" 25 r.Reuse.elements_per_fire;
  Alcotest.(check int) "new" 1 r.Reuse.new_per_fire;
  Alcotest.(check int) "reused" 24 r.Reuse.reused_per_fire;
  Alcotest.(check int) "column reuse" 20 r.Reuse.column_reuse_per_fire;
  Alcotest.(check (float 1e-9)) "fraction" 0.96 r.Reuse.reuse_fraction

let suite =
  [
    Alcotest.test_case "size: basics" `Quick test_size_basic;
    Alcotest.test_case "size: invalid" `Quick test_size_invalid;
    Alcotest.test_case "size: compare" `Quick test_size_compare;
    Alcotest.test_case "step: basics" `Quick test_step;
    Alcotest.test_case "offset: basics" `Quick test_offset;
    Alcotest.test_case "window: paper 100x100 example" `Quick
      test_window_iterations_paper_example;
    Alcotest.test_case "window: iteration edges" `Quick
      test_window_iterations_edges;
    Alcotest.test_case "window: downsampling step" `Quick test_window_downsample;
    Alcotest.test_case "window: 24/25 reuse" `Quick test_window_reuse_paper;
    Alcotest.test_case "window: block reuse" `Quick test_window_block_no_reuse;
    Alcotest.test_case "inset: of_window" `Quick test_inset_of_window;
    Alcotest.test_case "inset: zero-offset halo" `Quick
      test_inset_zero_offset_window;
    Alcotest.test_case "inset: algebra" `Quick test_inset_algebra;
    Alcotest.test_case "inset: diff/shrink" `Quick test_inset_diff_and_shrink;
    Alcotest.test_case "inset: fractional trim rejected" `Quick
      test_inset_fractional_rejects;
    Alcotest.test_case "rate: basics" `Quick test_rate;
    Alcotest.test_case "reuse: figure 5 numbers" `Quick test_reuse_module;
    window_iterations_extent_inverse;
    window_iterations_monotone;
    window_reuse_bounds;
    inset_union_commutative;
    inset_union_idempotent;
    inset_diff_roundtrip;
  ]

let inset_window_duality =
  (* For unit-step windows, the iteration space equals the frame shrunk by
     the window's inset — the identity the alignment pass relies on. *)
  qtest "iterations = extent shrunk by of_window (unit step)"
    QCheck2.Gen.(
      pair
        (pair (int_range 1 7) (int_range 1 7))
        (pair (int_range 10 40) (int_range 10 40)))
    (fun ((w, h), (fw, fh)) ->
      let win = Window.v ~offset:(Offset.centered (Size.v w h)) (Size.v w h) in
      let frame = Size.v fw fh in
      QCheck2.assume (Size.fits_within (Size.v w h) frame);
      let i = Inset.of_window win in
      QCheck2.assume (Inset.is_integral i);
      Size.equal
        (Window.iterations win ~frame)
        (Inset.shrink_size frame i))

let offset_centered_within_halo =
  qtest "centered offsets never exceed the halo"
    QCheck2.Gen.(pair (int_range 1 9) (int_range 1 9))
    (fun (w, h) ->
      let win =
        Window.v ~offset:(Offset.centered (Size.v w h)) (Size.v w h)
      in
      let i = Inset.of_window win in
      i.Inset.left >= 0. && i.Inset.right >= 0. && i.Inset.top >= 0.
      && i.Inset.bottom >= 0.)

let suite =
  suite @ [ inset_window_duality; offset_centered_within_halo ]
