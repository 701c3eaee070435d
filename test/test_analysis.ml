(* Tests for the dataflow analysis (Section III): iteration sizes and
   rates, inset propagation, misalignment detection, buffering needs,
   constant streams, and the feedback work-list. *)

open Block_parallel
open Harness

let source_into g ~frame ~rate =
  Graph.add g
    ~meta:(Graph.Source_meta { frame; rate })
    (Source.spec ~frame ~frames:[] ())

(* The paper's worked example: a 5x5 convolution over a 100x100 input at
   50 Hz iterates 96x96 at 50 Hz, and its output extent is 96x96. *)
let test_paper_conv_example () =
  let g = Graph.create () in
  let src = source_into g ~frame:(Size.v 100 100) ~rate:(Rate.hz 50.) in
  let conv = Graph.add g (Conv.spec ~w:5 ~h:5 ()) in
  let coeff =
    Graph.add g
      (Source.const ~chunk:(Image.Gen.constant (Size.v 5 5) 1.) ())
  in
  let c = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel c ()) in
  Graph.connect g ~from:(src, "out") ~into:(conv, "in");
  Graph.connect g ~from:(coeff, "out") ~into:(conv, "coeff");
  Graph.connect g ~from:(conv, "out") ~into:(sink, "in");
  let an = Dataflow.analyze g in
  let info = Dataflow.info_of an conv in
  Alcotest.(check (option size)) "96x96 iterations" (Some (Size.v 96 96))
    info.Dataflow.iterations;
  (match info.Dataflow.rate with
  | Some r -> Alcotest.(check (float 1e-9)) "50Hz" 50. (Rate.to_hz r)
  | None -> Alcotest.fail "expected a rate");
  let out_stream =
    Dataflow.stream_of an
      (List.hd (Graph.out_channels g conv ~port:"out" ())).Graph.chan_id
  in
  Alcotest.check size "output extent" (Size.v 96 96) out_stream.Stream.extent;
  Alcotest.check inset "output inset" (Inset.uniform 2.)
    out_stream.Stream.inset;
  Alcotest.(check (float 0.1)) "fires/frame" (96. *. 96.)
    out_stream.Stream.chunks_per_frame

let test_needs_buffer () =
  let g = Graph.create () in
  let src = source_into g ~frame:(Size.v 10 10) ~rate:(Rate.hz 10.) in
  let med = Graph.add g (Median.spec ~w:3 ~h:3 ()) in
  let fwd = Graph.add g (Arith.forward ()) in
  let c = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel c ()) in
  Graph.connect g ~from:(src, "out") ~into:(med, "in");
  Graph.connect g ~from:(med, "out") ~into:(fwd, "in");
  Graph.connect g ~from:(fwd, "out") ~into:(sink, "in");
  let an = Dataflow.analyze g in
  let needs id port =
    Dataflow.needs_buffer an (Option.get (Graph.in_channel g id port))
  in
  Alcotest.(check bool) "pixels into 3x3 window" true (needs med "in");
  Alcotest.(check bool) "pixels into pixels" false (needs fwd "in");
  Alcotest.(check bool) "pixels into sink" false (needs sink "in")

let test_needs_buffer_downsample () =
  let g = Graph.create () in
  let src = source_into g ~frame:(Size.v 10 10) ~rate:(Rate.hz 10.) in
  let dec_window = Window.v ~step:(Step.v 2 2) Size.one in
  let methods =
    [ Method_spec.on_data ~name:"m" ~inputs:[ "in" ] ~outputs:[ "out" ] () ]
  in
  let dec =
    Graph.add g
      (Kernel.v ~class_name:"Dec"
         ~inputs:[ Port.input "in" dec_window ]
         ~outputs:[ Port.output "out" Window.pixel ]
         ~methods
         ~make_behaviour:(fun () ->
           Behaviour.iteration_kernel ~methods
             ~run:(fun _ ~alloc:_ ~inputs ~outputs -> outputs.(0) <- inputs.(0))
             ())
         ())
  in
  let c = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel c ()) in
  Graph.connect g ~from:(src, "out") ~into:(dec, "in");
  Graph.connect g ~from:(dec, "out") ~into:(sink, "in");
  let an = Dataflow.analyze g in
  Alcotest.(check bool) "decimating window needs a buffer" true
    (Dataflow.needs_buffer an (Option.get (Graph.in_channel g dec "in")));
  let info = Dataflow.info_of an dec in
  Alcotest.(check (option size)) "5x5 decimated grid" (Some (Size.v 5 5))
    info.Dataflow.iterations

let test_constant_streams () =
  let g = Graph.create () in
  let src = source_into g ~frame:(Size.v 8 8) ~rate:(Rate.hz 10.) in
  let conv = Graph.add g (Conv.spec ~w:3 ~h:3 ()) in
  let coeff =
    Graph.add g (Source.const ~chunk:(Image.Gen.constant (Size.v 3 3) 1.) ())
  in
  let c = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel c ()) in
  Graph.connect g ~from:(src, "out") ~into:(conv, "in");
  Graph.connect g ~from:(coeff, "out") ~into:(conv, "coeff");
  Graph.connect g ~from:(conv, "out") ~into:(sink, "in");
  let an = Dataflow.analyze g in
  let coeff_stream =
    Dataflow.stream_of an
      (List.hd (Graph.out_channels g coeff ())).Graph.chan_id
  in
  Alcotest.(check bool) "constant" true coeff_stream.Stream.constant;
  Alcotest.(check bool) "no buffer for constants" false
    (Dataflow.needs_buffer an (Option.get (Graph.in_channel g conv "coeff")));
  let info = Dataflow.info_of an coeff in
  Alcotest.(check bool) "no steady-state rate" true (info.Dataflow.rate = None)

let test_misalignment_detected () =
  let inst =
    Apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 20.)
      ~n_frames:1 ()
  in
  let an = Dataflow.analyze inst.App.graph in
  match Dataflow.misalignments an with
  | [ m ] ->
    Alcotest.(check string) "at the subtract" "run" m.Dataflow.mis_method;
    Alcotest.check size "intersection" (Size.v 20 14)
      m.Dataflow.target_iterations;
    Alcotest.check inset "union inset" (Inset.uniform 2.)
      m.Dataflow.target_inset
  | l -> Alcotest.failf "expected one misalignment, got %d" (List.length l)

let test_rate_mismatch_rejected () =
  let g = Graph.create () in
  let a = source_into g ~frame:(Size.v 4 4) ~rate:(Rate.hz 10.) in
  let b = source_into g ~frame:(Size.v 4 4) ~rate:(Rate.hz 20.) in
  let sub = Graph.add g (Arith.subtract ()) in
  let c = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel c ()) in
  Graph.connect g ~from:(a, "out") ~into:(sub, "in0");
  Graph.connect g ~from:(b, "out") ~into:(sub, "in1");
  Graph.connect g ~from:(sub, "out") ~into:(sink, "in");
  expect_error (Err.Rate_mismatch "") (fun () ->
      ignore (Dataflow.analyze g))

let test_token_method_stream () =
  (* The histogram's finishCount output is one chunk per frame. *)
  let inst =
    Apps.Histogram_app.v ~frame:(Size.v 8 6) ~rate:(Rate.hz 10.) ~n_frames:1 ()
  in
  let g = inst.App.graph in
  let an = Dataflow.analyze g in
  let hist = Graph.node_by_name g "Histogram" in
  let out =
    Dataflow.stream_of an
      (List.hd (Graph.out_channels g hist.Graph.id ~port:"out" ())).Graph.chan_id
  in
  Alcotest.(check (float 0.)) "once per frame" 1. out.Stream.chunks_per_frame;
  Alcotest.check size "bins chunk" (Size.v 32 1) out.Stream.chunk;
  (* Counting dominates the fires: one per pixel plus the EOF handler. *)
  let info = Dataflow.info_of an hist.Graph.id in
  Alcotest.(check (float 0.1)) "fires" 49. info.Dataflow.fires_per_frame

let test_elaborated_graph_consistency () =
  (* After full compilation, the analysis must find no residual work. *)
  let inst =
    Apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 30.)
      ~n_frames:1 ()
  in
  let compiled = Pipeline.compile ~machine:Machine.default inst.App.graph in
  let an = compiled.Pipeline.analysis in
  Alcotest.(check int) "no misalignments" 0
    (List.length (Dataflow.misalignments an));
  List.iter
    (fun ch ->
      Alcotest.(check bool) "no buffer needed" false
        (Dataflow.needs_buffer an ch))
    (Graph.channels compiled.Pipeline.graph)

let test_feedback_worklist () =
  let inst =
    Apps.Feedback_app.v ~frame:(Size.v 6 5) ~rate:(Rate.hz 10.) ~n_frames:1 ()
  in
  let an = Dataflow.analyze inst.App.graph in
  let combine = Graph.node_by_name inst.App.graph "IIR" in
  let info = Dataflow.info_of an combine.Graph.id in
  Alcotest.(check (float 0.)) "loop fires once per pixel" 30.
    info.Dataflow.fires_per_frame

let test_feedback_without_init_rejected () =
  let g = Graph.create ~allow_cycles:true () in
  let src = source_into g ~frame:(Size.v 4 4) ~rate:(Rate.hz 10.) in
  let combine = Graph.add g (Feedback.loop_combine ( +. )) in
  let fwd = Graph.add g (Arith.forward ()) in
  let c = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel c ()) in
  Graph.connect g ~from:(src, "out") ~into:(combine, "in0");
  Graph.connect g ~from:(combine, "out") ~into:(fwd, "in");
  Graph.connect g ~from:(fwd, "out") ~into:(combine, "in1");
  Graph.connect g ~from:(combine, "out") ~into:(sink, "in");
  expect_error (Err.Graph_malformed "") (fun () ->
      ignore (Dataflow.analyze g))

let test_pad_meta_analysis () =
  (* A pad node grows the extent and reduces the inset. *)
  let g = Graph.create () in
  let src = source_into g ~frame:(Size.v 6 5) ~rate:(Rate.hz 10.) in
  let pad =
    Graph.add g
      ~meta:(Graph.Pad_meta { left = 1; right = 1; top = 2; bottom = 0 })
      (Inset_pad.pad ~frame:(Size.v 6 5) ~left:1 ~right:1 ~top:2 ~bottom:0 ())
  in
  let c = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel c ()) in
  Graph.connect g ~from:(src, "out") ~into:(pad, "in");
  Graph.connect g ~from:(pad, "out") ~into:(sink, "in");
  let an = Dataflow.analyze g in
  let s =
    Dataflow.stream_of an
      (List.hd (Graph.out_channels g pad ~port:"out" ())).Graph.chan_id
  in
  Alcotest.check size "grown extent" (Size.v 8 7) s.Stream.extent;
  Alcotest.(check (float 0.)) "negative inset (padding)" (-1.)
    s.Stream.inset.Inset.left

let test_stream_helpers () =
  let s = Stream.source_stream ~frame:(Size.v 4 3) ~rate:(Rate.hz 5.) ~origin:0 in
  Alcotest.(check (float 0.)) "words/frame" 12. (Stream.words_per_frame s);
  let c = Stream.constant_stream ~chunk:(Size.v 2 2) in
  Alcotest.(check (float 0.)) "constant words" 0. (Stream.words_per_frame c);
  (match Stream.same_rate [ s; c ] with
  | Some r -> Alcotest.(check (float 0.)) "rate survives constants" 5. (Rate.to_hz r)
  | None -> Alcotest.fail "expected rate");
  expect_error (Err.Rate_mismatch "") (fun () ->
      ignore
        (Stream.same_rate
           [ s; Stream.source_stream ~frame:(Size.v 4 3) ~rate:(Rate.hz 7.) ~origin:1 ]))

let suite =
  [
    Alcotest.test_case "dataflow: paper 5x5@50Hz example" `Quick
      test_paper_conv_example;
    Alcotest.test_case "dataflow: needs_buffer" `Quick test_needs_buffer;
    Alcotest.test_case "dataflow: downsampling window" `Quick
      test_needs_buffer_downsample;
    Alcotest.test_case "dataflow: constant streams" `Quick
      test_constant_streams;
    Alcotest.test_case "dataflow: misalignment detection" `Quick
      test_misalignment_detected;
    Alcotest.test_case "dataflow: rate mismatch" `Quick
      test_rate_mismatch_rejected;
    Alcotest.test_case "dataflow: token-method streams" `Quick
      test_token_method_stream;
    Alcotest.test_case "dataflow: elaborated consistency" `Quick
      test_elaborated_graph_consistency;
    Alcotest.test_case "dataflow: feedback worklist" `Quick
      test_feedback_worklist;
    Alcotest.test_case "dataflow: loop without init" `Quick
      test_feedback_without_init_rejected;
    Alcotest.test_case "dataflow: pad meta" `Quick test_pad_meta_analysis;
    Alcotest.test_case "stream: helpers" `Quick test_stream_helpers;
  ]

let test_fanout_write_words () =
  (* A port fanning out to two consumers writes its stream twice. *)
  let g = Graph.create () in
  let frame = Size.v 6 5 in
  let src = source_into g ~frame ~rate:(Rate.hz 10.) in
  let a = Graph.add g ~name:"a" (Arith.forward ()) in
  let b = Graph.add g ~name:"b" (Arith.forward ()) in
  let ca = Sink.collector () and cb = Sink.collector () in
  let sa = Graph.add g ~name:"sa" (Sink.spec ~window:Window.pixel ca ()) in
  let sb = Graph.add g ~name:"sb" (Sink.spec ~window:Window.pixel cb ()) in
  Graph.connect g ~from:(src, "out") ~into:(a, "in");
  Graph.connect g ~from:(src, "out") ~into:(b, "in");
  Graph.connect g ~from:(a, "out") ~into:(sa, "in");
  Graph.connect g ~from:(b, "out") ~into:(sb, "in");
  let an = Dataflow.analyze g in
  let src_info = Dataflow.info_of an src in
  Alcotest.(check (float 0.1)) "source writes both branches" 60.
    src_info.Dataflow.write_words_per_frame;
  let a_info = Dataflow.info_of an a in
  Alcotest.(check (float 0.1)) "forward reads one stream" 30.
    a_info.Dataflow.read_words_per_frame

let test_buffer_fires_accounting () =
  let g = Graph.create () in
  let frame = Size.v 8 6 in
  let src = source_into g ~frame ~rate:(Rate.hz 10.) in
  let med = Graph.add g (Median.spec ~w:3 ~h:3 ()) in
  let c = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel c ()) in
  Graph.connect g ~from:(src, "out") ~into:(med, "in");
  Graph.connect g ~from:(med, "out") ~into:(sink, "in");
  ignore (Buffering.run g);
  let an = Dataflow.analyze g in
  let buf =
    List.find
      (fun (n : Graph.node) -> n.Graph.spec.Kernel.role = Kernel.Buffer)
      (Graph.nodes g)
  in
  let info = Dataflow.info_of an buf.Graph.id in
  (* 48 input pixels + 24 emitted windows. *)
  Alcotest.(check (float 0.1)) "buffer fires" (48. +. 24.)
    info.Dataflow.fires_per_frame;
  Alcotest.(check (float 0.1)) "buffer writes windows" (24. *. 9.)
    info.Dataflow.write_words_per_frame

let test_disjoint_pipelines_different_rates () =
  (* Two unconnected pipelines with different rates coexist in one graph
     and one simulation. *)
  let g = Graph.create () in
  let mk name frame rate seed =
    let frames = Image.Gen.frame_sequence ~seed frame 2 in
    let src =
      Graph.add g ~name
        ~meta:(Graph.Source_meta { frame; rate })
        (Source.spec ~class_name:name ~frame ~frames ())
    in
    let fwd = Graph.add g ~name:(name ^ "_f") (Arith.forward ()) in
    let c = Sink.collector () in
    let sink =
      Graph.add g ~name:(name ^ "_s") (Sink.spec ~window:Window.pixel c ())
    in
    Graph.connect g ~from:(src, "out") ~into:(fwd, "in");
    Graph.connect g ~from:(fwd, "out") ~into:(sink, "in");
    (c, frame)
  in
  let ca, fa = mk "fast" (Size.v 4 3) (Rate.hz 50.) 1 in
  let cb, fb = mk "slow" (Size.v 6 5) (Rate.hz 10.) 2 in
  ignore (Dataflow.analyze g);
  let result =
    Sim.run ~graph:g ~mapping:(Mapping.one_to_one g)
      ~machine:Machine.default ()
  in
  Alcotest.(check int) "clean" 0 result.Sim.leftover_items;
  Alcotest.(check int) "fast pixels" (2 * Size.area fa)
    (List.length (Sink.chunks ca));
  Alcotest.(check int) "slow pixels" (2 * Size.area fb)
    (List.length (Sink.chunks cb))

let suite =
  suite
  @ [
      Alcotest.test_case "dataflow: fanout write words" `Quick
        test_fanout_write_words;
      Alcotest.test_case "dataflow: buffer accounting" `Quick
        test_buffer_fires_accounting;
      Alcotest.test_case "sim: disjoint pipelines" `Quick
        test_disjoint_pipelines_different_rates;
    ]

let test_user_token_budgets () =
  (* A kernel handling a user token must declare a bound; the analysis
     accounts the handler's cycles at that rate. *)
  let retune = Token.User "retune" in
  let make_spec ~declared =
    let methods =
      [
        Method_spec.on_data ~cycles:3 ~name:"apply" ~inputs:[ "in" ]
          ~outputs:[ "out" ] ();
        Method_spec.on_token ~cycles:40 ~name:"retune" ~input:"in"
          ~kind:retune ~outputs:[] ();
      ]
    in
    Kernel.v ~class_name:"Tunable"
      ?token_budgets:(if declared then Some [ Token.Bound.v retune ~max_per_frame:5 ] else Some [])
      ~inputs:[ Port.input "in" Window.pixel ]
      ~outputs:[ Port.output "out" Window.pixel ]
      ~methods
      ~make_behaviour:(fun () ->
        Behaviour.iteration_kernel ~methods
          ~run:(fun _ ~alloc:_ ~inputs ~outputs -> outputs.(0) <- inputs.(0))
          ())
      ()
  in
  (* Undeclared bound: rejected at spec construction. *)
  expect_error (Err.Invalid_parameterization "") (fun () ->
      ignore (make_spec ~declared:false));
  (* Declared: the analysis charges handler cycles at the bound. *)
  let g = Graph.create () in
  let frame = Size.v 6 5 in
  let src = source_into g ~frame ~rate:(Rate.hz 10.) in
  let k = Graph.add g (make_spec ~declared:true) in
  let c = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel c ()) in
  Graph.connect g ~from:(src, "out") ~into:(k, "in");
  Graph.connect g ~from:(k, "out") ~into:(sink, "in");
  let an = Dataflow.analyze g in
  let info = Dataflow.info_of an k in
  (* 30 pixels x 3 cycles + 5 retunes x 40 cycles. *)
  Alcotest.(check (float 0.1)) "cycles include handlers"
    ((30. *. 3.) +. (5. *. 40.))
    info.Dataflow.compute_cycles_per_frame;
  Alcotest.(check (float 0.1)) "fires include handlers" 35.
    info.Dataflow.fires_per_frame

let suite =
  suite
  @ [
      Alcotest.test_case "dataflow: user token budgets" `Quick
        test_user_token_budgets;
    ]
