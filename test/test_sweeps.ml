(* Parameterized end-to-end sweeps: the same pipeline verified across a
   grid of window geometries, frame extents, and rates. Each case is a
   distinct compile+simulate+verify run against a whole-frame reference. *)

open Block_parallel
open Harness

(* One windowed filter through the full compile+simulate path. *)
let run_filter_case ~frame ~spec ~golden =
  let rate = Rate.hz 10. in
  let frames = Image.Gen.frame_sequence ~seed:6 frame 2 in
  let g = Graph.create () in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate })
      (Source.spec ~frame ~frames ())
  in
  let k, feed_coeff = spec g in
  let collector = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel collector ()) in
  Graph.connect g ~from:(src, "out") ~into:(k, "in");
  feed_coeff ();
  Graph.connect g ~from:(k, "out") ~into:(sink, "in");
  let compiled = Pipeline.compile ~machine:Machine.default g in
  let result = Sim.run_plan ~policy:Plan.Greedy compiled () in
  Alcotest.(check int) "clean" 0 result.Sim.leftover_items;
  let expected = List.map golden frames in
  let out_extent = Image.size (List.hd expected) in
  let got =
    List.map
      (fun chunks ->
        Image.of_scanline_list out_extent
          (List.map (fun c -> Image.get c ~x:0 ~y:0) chunks))
      (Sink.chunks_between_frames collector)
  in
  List.iter2
    (fun a b ->
      Alcotest.(check (float 1e-9)) "pixels" 0. (Image.max_abs_diff a b))
    expected got

let conv_case (kw, kh) () =
  let frame = Size.v (kw + 9) (kh + 7) in
  let coeffs =
    Image.init (Size.v kw kh) (fun ~x ~y ->
        0.01 *. float_of_int (x + (2 * y) + 1))
  in
  run_filter_case ~frame
    ~spec:(fun g ->
      let conv = Graph.add g (Conv.spec ~w:kw ~h:kh ()) in
      let c = Graph.add g (Source.const ~chunk:coeffs ()) in
      (conv, fun () -> Graph.connect g ~from:(c, "out") ~into:(conv, "coeff")))
    ~golden:(fun f -> Image_ops.convolve f ~kernel:coeffs)

let median_case (kw, kh) () =
  let frame = Size.v (kw + 8) (kh + 6) in
  run_filter_case ~frame
    ~spec:(fun g -> (Graph.add g (Median.spec ~w:kw ~h:kh ()), fun () -> ()))
    ~golden:(fun f -> Image_ops.median f ~w:kw ~h:kh)

let decimate_case (fx, fy) () =
  let frame = Size.v ((3 * fx) + 4) ((3 * fy) + 3) in
  run_filter_case ~frame
    ~spec:(fun g -> (Graph.add g (Decimate.spec ~fx ~fy ()), fun () -> ()))
    ~golden:(fun f -> Image_ops.downsample f ~fx ~fy)

let image_pipeline_case (w, h, rate_hz) () =
  let inst =
    Apps.Image_pipeline.v ~frame:(Size.v w h) ~rate:(Rate.hz rate_hz)
      ~n_frames:2 ()
  in
  ignore (check_app ~policies:[ Plan.Greedy ] inst)

let edge_case (w, h) () =
  let inst =
    Apps.Edge_app.v ~frame:(Size.v w h) ~rate:(Rate.hz 20.) ~n_frames:2 ()
  in
  ignore (check_app ~policies:[ Plan.One_to_one ] inst)

let bayer_case (w, h) () =
  let inst =
    Apps.Bayer_app.v ~frame:(Size.v w h) ~rate:(Rate.hz 25.) ~n_frames:2 ()
  in
  ignore (check_app ~policies:[ Plan.Greedy ] inst)

let named fmt f cases =
  List.map
    (fun case -> Alcotest.test_case (fmt case) `Slow (f case))
    cases

let suite =
  named
    (fun (w, h) -> Printf.sprintf "conv %dx%d end-to-end" w h)
    conv_case
    [ (1, 1); (3, 3); (5, 5); (7, 7); (5, 3); (3, 5); (7, 1); (1, 7) ]
  @ named
      (fun (w, h) -> Printf.sprintf "median %dx%d end-to-end" w h)
      median_case
      [ (3, 3); (5, 5); (3, 1); (1, 3); (5, 3) ]
  @ named
      (fun (fx, fy) -> Printf.sprintf "decimate %dx%d end-to-end" fx fy)
      decimate_case
      [ (2, 2); (3, 2); (2, 3); (4, 4) ]
  @ named
      (fun (w, h, r) -> Printf.sprintf "image pipeline %dx%d@%gHz" w h r)
      image_pipeline_case
      [ (16, 14, 20.); (20, 16, 35.); (32, 24, 25.); (24, 18, 15.) ]
  @ named
      (fun (w, h) -> Printf.sprintf "edge detect %dx%d" w h)
      edge_case
      [ (14, 12); (26, 20) ]
  @ named
      (fun (w, h) -> Printf.sprintf "bayer %dx%d" w h)
      bayer_case
      [ (12, 10); (22, 18) ]
