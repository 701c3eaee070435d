open Bp_geometry
module Graph = Bp_graph.Graph
module Image = Bp_image.Image
module Ops = Bp_image.Ops
module K = Bp_kernels

let v ?(seed = 53) ~frame ~rate ~n_frames () =
  let frames = Image.Gen.frame_sequence ~seed frame n_frames in
  let g = Graph.create () in
  let src = App.add_source g ~frame ~rate ~frames in
  let blur_coeff = Image.Gen.constant (Size.v 3 3) (1. /. 9.) in
  let blur = Graph.add g ~name:"3x3 Blur" (K.Conv.spec ~w:3 ~h:3 ()) in
  let coeff =
    Graph.add g ~name:"Blur Coeff"
      (K.Source.const ~class_name:"Blur Coeff" ~chunk:blur_coeff ())
  in
  (* A 1x1 window with step 2x2: the compiler's buffering pass turns the
     step into a downsampling buffer. *)
  let dec = Graph.add g (K.Decimate.spec ~fx:2 ~fy:2 ()) in
  let gain = Graph.add g (K.Arith.gain 2.) in
  let collector = K.Sink.collector () in
  let sink = App.add_sink g ~name:"result" ~window:Window.pixel collector in
  Graph.connect g ~from:(src, "out") ~into:(blur, "in");
  Graph.connect g ~from:(coeff, "out") ~into:(blur, "coeff");
  Graph.connect g ~from:(blur, "out") ~into:(dec, "in");
  Graph.connect g ~from:(dec, "out") ~into:(gain, "in");
  Graph.connect g ~from:(gain, "out") ~into:(sink, "in");
  let blurred_extent = Size.v (frame.Size.w - 2) (frame.Size.h - 2) in
  let out_extent =
    Size.v
      (((blurred_extent.Size.w - 1) / 2) + 1)
      (((blurred_extent.Size.h - 1) / 2) + 1)
  in
  let golden =
    List.map
      (fun f ->
        let blurred = Ops.convolve f ~kernel:blur_coeff in
        Ops.gain (Ops.downsample blurred ~fx:2 ~fy:2) 2.)
      frames
  in
  let check () =
    App.max_diff_over_frames ~golden
      (App.sink_frames_as_images collector out_extent)
  in
  {
    App.name = "downsample";
    graph = g;
    frame;
    rate;
    n_frames;
    checks = [ ("decimated", check) ];
    expected_chunks = [ ("result", n_frames * Size.area out_extent) ];
    collectors = [ ("result", collector) ];
    allowed_leftover = 0;
  }
