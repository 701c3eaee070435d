(* Thermal inspection: decimation plus temporal smoothing.

   A slow thermal sensor streams frames that are box-blurred, decimated
   2x2 (the model's step-larger-than-window downsampling, implemented by a
   downsampling buffer the compiler inserts), and then smoothed over time
   with a first-order IIR filter closed through a feedback loop — the
   Section III-D extension.

   Run with: dune exec examples/thermal_smoothing.exe *)

open Block_parallel

let smoothing = 0.25

let () =
  let frame = Size.v 20 16 in
  let rate = Rate.hz 12. in
  let n_frames = 5 in
  let frames = Image.Gen.frame_sequence ~seed:3 frame n_frames in

  let g = Graph.create ~allow_cycles:true () in
  let sensor =
    Graph.add g ~name:"Thermal Sensor"
      ~meta:(Graph.Source_meta { frame; rate })
      (Source.spec ~frame ~frames ())
  in
  let blur = Graph.add g ~name:"Blur" (Conv.spec ~w:3 ~h:3 ()) in
  let blur_img = Image.Gen.constant (Size.v 3 3) (1. /. 9.) in
  let coeff = Graph.add g (Source.const ~class_name:"Coeff" ~chunk:blur_img ()) in
  (* A 1x1 window with step 2x2: keep one pixel in four. *)
  let dec = Graph.add g (Decimate.spec ~fx:2 ~fy:2 ()) in
  (* Temporal IIR on the decimated stream. *)
  let blurred = Size.v (frame.Size.w - 2) (frame.Size.h - 2) in
  let decimated =
    Size.v (((blurred.Size.w - 1) / 2) + 1) (((blurred.Size.h - 1) / 2) + 1)
  in
  let smooth =
    Graph.add g
      (Feedback.loop_combine ~class_name:"Temporal Smooth"
         (fun x prev -> ((1. -. smoothing) *. x) +. (smoothing *. prev)))
  in
  let init =
    Graph.add g
      ~meta:(Graph.Feedback_init_meta { extent = decimated; rate })
      (Feedback.init ~window:Window.pixel
         ~initial:[ Image.Gen.constant Size.one 0. ]
         ())
  in
  let results = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel results ()) in
  Graph.connect g ~from:(sensor, "out") ~into:(blur, "in");
  Graph.connect g ~from:(coeff, "out") ~into:(blur, "coeff");
  Graph.connect g ~from:(blur, "out") ~into:(dec, "in");
  Graph.connect g ~from:(dec, "out") ~into:(smooth, "in0");
  Graph.connect g ~from:(smooth, "out") ~into:(sink, "in");
  Graph.connect g ~from:(smooth, "out") ~into:(init, "in");
  Graph.connect g ~from:(init, "out") ~into:(smooth, "in1");

  let compiled = Pipeline.compile ~machine:Machine.default g in
  Format.printf "%a@." Pipeline.pp_summary compiled;
  let result = Sim.run_plan ~policy:Plan.One_to_one compiled () in
  Format.printf "%a@." Sim.pp_result result;

  (* Reference computation with the same scan-line recurrence. *)
  let prev = ref 0. in
  let expected =
    List.map
      (fun f ->
        let d =
          Image_ops.downsample (Image_ops.convolve f ~kernel:blur_img) ~fx:2
            ~fy:2
        in
        let out = Image.create decimated in
        for y = 0 to decimated.Size.h - 1 do
          for x = 0 to decimated.Size.w - 1 do
            let v =
              ((1. -. smoothing) *. Image.get d ~x ~y)
              +. (smoothing *. !prev)
            in
            prev := v;
            Image.set out ~x ~y v
          done
        done;
        out)
      frames
  in
  let got =
    List.map
      (fun chunks ->
        Image.of_scanline_list decimated
          (List.map (fun c -> Image.get c ~x:0 ~y:0) chunks))
      (Sink.chunks_between_frames results)
  in
  let worst =
    List.fold_left2
      (fun acc a b -> Float.max acc (Image.max_abs_diff a b))
      0. expected got
  in
  Format.printf "smoothed frames: %d, worst |diff| vs reference = %g@."
    (List.length got) worst
