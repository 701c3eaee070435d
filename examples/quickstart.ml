(* Quickstart: a real-time blur.

   Build a three-kernel application — a camera-like input, a 3x3 box blur,
   an output — and let the compiler do everything the paper automates:
   insert the row buffer, check the rates, parallelize if needed, and map
   the kernels to processors. Then simulate and verify the pixels.

   Run with: dune exec examples/quickstart.exe *)

open Block_parallel

let () =
  (* The real-time contract: 32x24 frames at 50 frames per second. *)
  let frame = Size.v 32 24 in
  let rate = Rate.hz 50. in
  let frames = Image.Gen.frame_sequence ~seed:1 frame 4 in

  (* The application graph, exactly as the programmer writes it: no
     buffers, no splits — the 3x3 window on the blur input is the whole
     story the compiler needs. *)
  let g = Graph.create () in
  let input =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate })
      (Source.spec ~frame ~frames ())
  in
  let blur = Graph.add g ~name:"3x3 Blur" (Conv.spec ~w:3 ~h:3 ()) in
  let coeff_img = Image.Gen.constant (Size.v 3 3) (1. /. 9.) in
  let coeff =
    Graph.add g (Source.const ~class_name:"Blur Coeff" ~chunk:coeff_img ())
  in
  let results = Sink.collector () in
  let output = Graph.add g (Sink.spec ~window:Window.pixel results ()) in
  Graph.connect g ~from:(input, "out") ~into:(blur, "in");
  Graph.connect g ~from:(coeff, "out") ~into:(blur, "coeff");
  Graph.connect g ~from:(blur, "out") ~into:(output, "in");

  (* Compile: analysis, buffering, alignment, parallelization. *)
  let compiled = Pipeline.compile ~machine:Machine.default g in
  Format.printf "%a@." Pipeline.pp_summary compiled;

  (* Simulate on the timing-accurate functional simulator. *)
  let result = Sim.run_plan ~policy:Plan.Greedy compiled () in
  Format.printf "%a@." Sim.pp_result result;

  (* Verify every pixel against the reference convolution. *)
  let expected = List.map (fun f -> Image_ops.convolve f ~kernel:coeff_img) frames in
  let got =
    List.map
      (fun chunks ->
        Image.of_scanline_list
          (Size.v (frame.Size.w - 2) (frame.Size.h - 2))
          (List.map (fun c -> Image.get c ~x:0 ~y:0) chunks))
      (Sink.chunks_between_frames results)
  in
  let worst =
    List.fold_left2
      (fun acc a b -> Float.max acc (Image.max_abs_diff a b))
      0. expected got
  in
  let verdict =
    Sim.real_time_verdict result ~expected_frames:4
      ~period_s:(Rate.frame_period_s rate) ()
  in
  Format.printf "pixels: worst |diff| = %g; real-time: %s@." worst
    (if verdict.Sim.met then "met" else "MISSED")
