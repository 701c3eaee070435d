(* Tests for the discrete-event simulator: timing accounting, scheduling,
   backpressure, stall detection, verdicts, and the event heap. *)

open Block_parallel
open Harness

let forward_chain ?(capacity = 16) ~frame ~rate ~frames ~stages () =
  let g = Graph.create () in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate })
      (Source.spec ~frame ~frames ())
  in
  let collector = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel collector ()) in
  let rec chain prev = function
    | 0 -> prev
    | k ->
      let f = Graph.add g (Arith.forward ()) in
      Graph.connect g ~capacity ~from:prev ~into:(f, "in");
      chain (f, "out") (k - 1)
  in
  let last = chain (src, "out") stages in
  Graph.connect g ~capacity ~from:last ~into:(sink, "in");
  (g, collector)

let run ?max_time_s g machine =
  Sim.run ?max_time_s ~graph:g ~mapping:(Mapping.one_to_one g) ~machine ()

let test_empty_pipeline_content () =
  let frame = Size.v 4 3 in
  let frames = Image.Gen.frame_sequence ~seed:2 frame 2 in
  let g, collector =
    forward_chain ~frame ~rate:(Rate.hz 50.) ~frames ~stages:3 ()
  in
  let result = run g Machine.default in
  Alcotest.(check int) "no leftovers" 0 result.Sim.leftover_items;
  Alcotest.(check int) "no stalls" 0 result.Sim.input_stalls;
  Alcotest.(check bool) "not timed out" false result.Sim.timed_out;
  let got =
    List.map
      (fun chunks ->
        Image.of_scanline_list frame
          (List.map (fun c -> Image.get c ~x:0 ~y:0) chunks))
      (Sink.chunks_between_frames collector)
  in
  Alcotest.(check int) "both frames" 2 (List.length got);
  List.iter2
    (fun a b -> Alcotest.check image "frame intact" a b)
    frames got

let test_accounting_sums () =
  let frame = Size.v 6 4 in
  let frames = Image.Gen.frame_sequence ~seed:2 frame 1 in
  let g, _ = forward_chain ~frame ~rate:(Rate.hz 100.) ~frames ~stages:2 () in
  let result = run g Machine.default in
  (* Forward kernels: data fires cost 1 cycle, auto-forwarded tokens cost
     the 2-cycle forwarding charge — so per-PE run time is bounded by fires
     at those two rates. *)
  Array.iter
    (fun (p : Sim.proc_stats) ->
      let cyc = Machine.cycle_time_s Machine.default.Machine.pe in
      let lo = float_of_int p.Sim.fires *. cyc in
      let hi = 2. *. lo in
      Alcotest.(check bool) "run time within fire bounds" true
        (p.Sim.run_s >= lo -. 1e-12 && p.Sim.run_s <= hi +. 1e-12))
    result.Sim.procs;
  let run_f, read_f, write_f = Sim.utilization_breakdown result in
  Alcotest.(check bool) "read visible" true (read_f > 0.);
  Alcotest.(check bool) "write visible" true (write_f > 0.);
  Alcotest.(check bool) "utilization below 1" true
    (run_f +. read_f +. write_f <= 1.)

let test_sink_eof_times_recorded () =
  let frame = Size.v 4 3 in
  let rate = Rate.hz 40. in
  let frames = Image.Gen.frame_sequence ~seed:2 frame 3 in
  let g, _ = forward_chain ~frame ~rate ~frames ~stages:1 () in
  let result = run g Machine.default in
  match result.Sim.sink_eofs with
  | [ (_, times) ] ->
    Alcotest.(check int) "three frames" 3 (List.length times);
    let rec intervals = function
      | a :: (b :: _ as rest) -> (b -. a) :: intervals rest
      | _ -> []
    in
    List.iter
      (fun dt ->
        Alcotest.(check bool)
          (Printf.sprintf "steady interval %.6f" dt)
          true
          (Float.abs (dt -. Rate.frame_period_s rate) < 1e-4))
      (intervals times)
  | _ -> Alcotest.fail "expected one sink"

let test_backpressure_small_capacities () =
  (* Tiny channels force backpressure but must not deadlock. *)
  let frame = Size.v 5 4 in
  let frames = Image.Gen.frame_sequence ~seed:2 frame 2 in
  (* Capacity 4 is the tightest that lets the source place a frame-corner
     burst (pixel + EOL + EOF). *)
  let g, collector =
    forward_chain ~capacity:4 ~frame ~rate:(Rate.hz 20.) ~frames ~stages:4 ()
  in
  let result = run g Machine.default in
  Alcotest.(check int) "drained" 0 result.Sim.leftover_items;
  Alcotest.(check int) "all pixels arrive" (2 * 20)
    (List.length (Sink.chunks collector))

let test_overload_reports_stalls () =
  (* One slow kernel far beyond the input rate must stall the source. *)
  let g = Graph.create () in
  let frame = Size.v 8 6 in
  let rate = Rate.hz 200. in
  let frames = Image.Gen.frame_sequence ~seed:1 frame 2 in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate })
      (Source.spec ~frame ~frames ())
  in
  let methods =
    [
      Method_spec.on_data ~cycles:500 ~name:"m" ~inputs:[ "in" ]
        ~outputs:[ "out" ] ();
    ]
  in
  let slow =
    Kernel.v ~class_name:"Slow"
      ~inputs:[ Port.input "in" Window.pixel ]
      ~outputs:[ Port.output "out" Window.pixel ]
      ~methods
      ~make_behaviour:(fun () ->
        Behaviour.iteration_kernel ~methods
          ~run:(fun _ ~alloc:_ ~inputs ~outputs -> outputs.(0) <- inputs.(0))
          ())
      ()
  in
  let k = Graph.add g slow in
  let c = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel c ()) in
  Graph.connect g ~from:(src, "out") ~into:(k, "in");
  Graph.connect g ~from:(k, "out") ~into:(sink, "in");
  let result = run g Machine.default in
  Alcotest.(check bool) "stalls recorded" true (result.Sim.input_stalls > 0);
  Alcotest.(check bool) "late emissions recorded" true
    (result.Sim.late_emissions > 0);
  Alcotest.(check bool) "lateness measured" true
    (result.Sim.max_input_lateness_s > 0.);
  (* Content is still complete — real time was violated, data was not. *)
  Alcotest.(check int) "all pixels delivered" (2 * 48)
    (List.length (Sink.chunks c));
  let verdict =
    Sim.real_time_verdict result ~expected_frames:2
      ~period_s:(Rate.frame_period_s rate) ()
  in
  Alcotest.(check bool) "verdict: missed" false verdict.Sim.met

let test_verdict_met () =
  let frame = Size.v 4 3 in
  let rate = Rate.hz 30. in
  let frames = Image.Gen.frame_sequence ~seed:2 frame 3 in
  let g, _ = forward_chain ~frame ~rate ~frames ~stages:1 () in
  let result = run g Machine.default in
  let verdict =
    Sim.real_time_verdict result ~expected_frames:3
      ~period_s:(Rate.frame_period_s rate) ()
  in
  Alcotest.(check bool) "met" true verdict.Sim.met;
  Alcotest.(check int) "frames" 3 verdict.Sim.frames_delivered;
  Alcotest.(check bool) "interval near period" true
    (Float.abs (verdict.Sim.mean_frame_interval_s -. Rate.frame_period_s rate)
    < 1e-3)

let test_verdict_missing_frames () =
  let frame = Size.v 4 3 in
  let frames = Image.Gen.frame_sequence ~seed:2 frame 1 in
  let g, _ = forward_chain ~frame ~rate:(Rate.hz 30.) ~frames ~stages:1 () in
  let result = run g Machine.default in
  let verdict =
    Sim.real_time_verdict result ~expected_frames:2 ~period_s:0.1 ()
  in
  Alcotest.(check bool) "fewer frames fails" false verdict.Sim.met

let test_timeout_flagged () =
  let frame = Size.v 4 3 in
  let frames = Image.Gen.frame_sequence ~seed:2 frame 5 in
  let g, _ = forward_chain ~frame ~rate:(Rate.hz 1.) ~frames ~stages:1 () in
  let result = run ~max_time_s:0.5 g Machine.default in
  Alcotest.(check bool) "timed out" true result.Sim.timed_out

let test_multiplexed_mapping_equivalent () =
  (* The same graph on one shared PE produces identical pixels. *)
  let frame = Size.v 5 4 in
  let frames = Image.Gen.frame_sequence ~seed:4 frame 2 in
  let g, collector =
    forward_chain ~frame ~rate:(Rate.hz 10.) ~frames ~stages:3 ()
  in
  let on_chip =
    List.filter_map
      (fun (n : Graph.node) ->
        if Mapping.is_on_chip n then Some n.Graph.id else None)
      (Graph.nodes g)
  in
  let mapping = Mapping.of_groups g [ on_chip ] in
  let result = Sim.run ~graph:g ~mapping ~machine:Machine.default () in
  Alcotest.(check int) "one PE" 1 (Array.length result.Sim.procs);
  Alcotest.(check int) "all pixels" 40 (List.length (Sink.chunks collector));
  Alcotest.(check bool) "busier than 1:1 average" true
    (Sim.utilization result ~proc:0 > 0.)

let test_heap_ordering () =
  let h = Bp_sim.Heap.create ~dummy:"" () in
  Alcotest.(check bool) "empty" true (Bp_sim.Heap.is_empty h);
  List.iter
    (fun (t, v) -> Bp_sim.Heap.push h ~time:t v)
    [ (3., "c"); (1., "a"); (2., "b"); (1., "a2") ];
  Alcotest.(check int) "size" 4 (Bp_sim.Heap.size h);
  let order =
    List.init 4 (fun _ ->
        match Bp_sim.Heap.pop h with Some (_, v) -> v | None -> "?")
  in
  (* Ties preserve insertion order. *)
  Alcotest.(check (list string)) "sorted with stable ties"
    [ "a"; "a2"; "b"; "c" ] order;
  Alcotest.(check bool) "drained" true (Bp_sim.Heap.pop h = None)

let heap_sorts =
  qtest ~count:100 "heap pops in nondecreasing time order"
    QCheck2.Gen.(list_size (int_range 0 60) (float_bound_inclusive 100.))
    (fun times ->
      let h = Bp_sim.Heap.create ~dummy:() () in
      List.iter (fun t -> Bp_sim.Heap.push h ~time:t ()) times;
      let popped =
        List.init (List.length times) (fun _ ->
            match Bp_sim.Heap.pop h with
            | Some (t, ()) -> t
            | None -> nan)
      in
      List.sort compare times = popped)

let test_ring_wraparound () =
  (* Push/pop cycles that cross the capacity boundary repeatedly: the
     ring must stay FIFO while head wraps, and space accounting must stay
     exact at both the full and empty edges. *)
  let r = Ring.create ~capacity:4 ~dummy:(-1) in
  Alcotest.(check int) "initial space" 4 (Ring.space r);
  Alcotest.(check bool) "initially empty" true (Ring.is_empty r);
  (* Fill, drain half, refill past the array end, drain fully — thrice,
     so the head wraps through every slot. *)
  let counter = ref 0 in
  let popped = ref [] in
  let expected = ref [] in
  for _round = 1 to 3 do
    while not (Ring.is_full r) do
      incr counter;
      expected := !counter :: !expected;
      Ring.push r !counter
    done;
    Alcotest.(check int) "full: no space" 0 (Ring.space r);
    for _ = 1 to 2 do
      popped := Ring.pop r :: !popped
    done;
    incr counter;
    expected := !counter :: !expected;
    Ring.push r !counter;
    Alcotest.(check int) "after refill" 3 (Ring.length r);
    while not (Ring.is_empty r) do
      popped := Ring.pop r :: !popped
    done;
    Alcotest.(check int) "empty again" 4 (Ring.space r)
  done;
  Alcotest.(check (list int))
    "FIFO order preserved across wraps" (List.rev !expected)
    (List.rev !popped);
  (* Misuse raises rather than corrupting. *)
  Alcotest.check_raises "pop empty" (Invalid_argument "Ring.pop: empty")
    (fun () -> ignore (Ring.pop r));
  Ring.push r 1;
  Alcotest.(check int) "peek" 1 (Ring.peek r);
  Ring.push r 2;
  Ring.push r 3;
  Ring.push r 4;
  Alcotest.check_raises "push full" (Invalid_argument "Ring.push: full")
    (fun () -> Ring.push r 5)

let test_blocked_source_quiesces () =
  (* A wedged graph behind a source: branch A forwards pixels while
     branch B shrinks the stream, so the joining subtract wedges on
     mixed fronts and backpressure reaches the source. The event-driven
     engine records the missed emission slots and then goes quiet —
     without the reference engine's quarter-period retry polling, a
     deadlocked run ends at quiescence (timed_out = false) after a
     handful of events instead of burning polls until the time limit. *)
  let g = Graph.create () in
  let frame = Size.v 4 3 in
  let frames = Image.Gen.frame_sequence ~seed:1 frame 3 in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate = Rate.hz 10. })
      (Source.spec ~frame ~frames ())
  in
  let fwd = Graph.add g (Arith.forward ()) in
  let med = Graph.add g (Median.spec ~w:3 ~h:3 ()) in
  let cfg = Buffer.config ~out_window:(Window.windowed 3 3) ~frame () in
  let buf = Graph.add g (Buffer.spec cfg) in
  let sub = Graph.add g (Arith.subtract ()) in
  let c = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel c ()) in
  Graph.connect g ~from:(src, "out") ~into:(fwd, "in");
  Graph.connect g ~from:(src, "out") ~into:(buf, "in");
  Graph.connect g ~from:(buf, "out") ~into:(med, "in");
  Graph.connect g ~from:(fwd, "out") ~into:(sub, "in0");
  Graph.connect g ~from:(med, "out") ~into:(sub, "in1");
  Graph.connect g ~from:(sub, "out") ~into:(sink, "in");
  let result =
    Sim.run ~graph:g ~mapping:(Mapping.one_to_one g)
      ~machine:Machine.default ()
  in
  Alcotest.(check bool) "items wedged" true (result.Sim.leftover_items > 0);
  Alcotest.(check bool) "source saw the backpressure" true
    (result.Sim.input_stalls >= 1);
  Alcotest.(check bool) "quiesced, not timed out" false result.Sim.timed_out;
  Alcotest.(check bool)
    (Printf.sprintf "no retry burn (%d events)" result.Sim.events_processed)
    true
    (result.Sim.events_processed < 5_000)

let suite =
  [
    Alcotest.test_case "sim: pipeline content" `Quick
      test_empty_pipeline_content;
    Alcotest.test_case "sim: accounting sums" `Quick test_accounting_sums;
    Alcotest.test_case "sim: eof times" `Quick test_sink_eof_times_recorded;
    Alcotest.test_case "sim: backpressure" `Quick
      test_backpressure_small_capacities;
    Alcotest.test_case "sim: overload stalls" `Quick test_overload_reports_stalls;
    Alcotest.test_case "sim: verdict met" `Quick test_verdict_met;
    Alcotest.test_case "sim: verdict missing frames" `Quick
      test_verdict_missing_frames;
    Alcotest.test_case "sim: timeout flag" `Quick test_timeout_flagged;
    Alcotest.test_case "sim: shared-PE mapping" `Quick
      test_multiplexed_mapping_equivalent;
    Alcotest.test_case "heap: ordering" `Quick test_heap_ordering;
    heap_sorts;
    Alcotest.test_case "ring: wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "sim: blocked source quiesces" `Quick
      test_blocked_source_quiesces;
  ]

let test_channel_occupancy_bounded () =
  (* Occupancy never exceeds capacity, and on a rate-met run the channel
     into the first buffer stays far from full (the input is never close
     to blocking). *)
  let inst =
    Bp_apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 30.)
      ~n_frames:2 ()
  in
  let compiled = Pipeline.compile ~machine:Machine.default inst.App.graph in
  let g = compiled.Pipeline.graph in
  let result = Sim.run_plan ~policy:Plan.One_to_one compiled () in
  List.iter
    (fun (chan_id, depth) ->
      let c = Graph.channel g chan_id in
      Alcotest.(check bool)
        (Printf.sprintf "channel %d occupancy %d within capacity %d" chan_id
           depth c.Graph.capacity)
        true
        (depth <= c.Graph.capacity))
    result.Sim.channel_depths;
  (* Source output channels never filled to capacity (no stalls). *)
  let src = List.hd (Graph.sources g) in
  List.iter
    (fun (c : Graph.channel) ->
      let depth = List.assoc c.Graph.chan_id result.Sim.channel_depths in
      Alcotest.(check bool) "input channel headroom" true
        (depth < c.Graph.capacity))
    (Graph.out_channels g src.Graph.id ());
  Alcotest.(check int) "no stalls" 0 result.Sim.input_stalls

let test_rate_scaling_on_fast_pe () =
  (* A 4x faster PE sustains a ~4x higher rate frontier for the same
     application and budget. *)
  let build machine =
    let b ~rate_hz =
      (Bp_apps.Histogram_app.v ~frame:(Size.v 24 18) ~rate:(Rate.hz rate_hz)
         ~n_frames:1 ())
        .App.graph
    in
    (Rate_search.search ~iterations:10 ~machine ~max_pes:4 b)
      .Rate_search.best_rate_hz
  in
  let slow = build Machine.default in
  let fast = build Machine.fast_pe in
  Alcotest.(check bool)
    (Printf.sprintf "fast/slow = %.2f in [3,5]" (fast /. slow))
    true
    (fast /. slow > 3. && fast /. slow < 5.)

let suite =
  suite
  @ [
      Alcotest.test_case "sim: channel occupancy" `Quick
        test_channel_occupancy_bounded;
      Alcotest.test_case "machine: fast PE scales the frontier" `Slow
        test_rate_scaling_on_fast_pe;
    ]

let test_stuck_diagnostics () =
  (* A deliberately mis-built graph: subtract fed by streams of different
     lengths deadlocks on mixed fronts; the diagnostic names the wedge. *)
  let g = Graph.create () in
  let frame = Size.v 4 3 in
  let frames = Image.Gen.frame_sequence ~seed:1 frame 1 in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate = Rate.hz 10. })
      (Source.spec ~frame ~frames ())
  in
  (* Branch A: identity; branch B: a 3x3 median that shrinks the stream.
     Without the alignment pass, subtract wedges mid-frame. *)
  let fwd = Graph.add g (Arith.forward ()) in
  let med = Graph.add g (Median.spec ~w:3 ~h:3 ()) in
  let cfg = Buffer.config ~out_window:(Window.windowed 3 3) ~frame () in
  let buf = Graph.add g (Buffer.spec cfg) in
  let sub = Graph.add g (Arith.subtract ()) in
  let c = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel c ()) in
  Graph.connect g ~from:(src, "out") ~into:(fwd, "in");
  Graph.connect g ~from:(src, "out") ~into:(buf, "in");
  Graph.connect g ~from:(buf, "out") ~into:(med, "in");
  Graph.connect g ~from:(fwd, "out") ~into:(sub, "in0");
  Graph.connect g ~from:(med, "out") ~into:(sub, "in1");
  Graph.connect g ~from:(sub, "out") ~into:(sink, "in");
  let result =
    Sim.run ~max_time_s:1. ~graph:g ~mapping:(Mapping.one_to_one g)
      ~machine:Machine.default ()
  in
  Alcotest.(check bool) "items wedged" true (result.Sim.leftover_items > 0);
  Alcotest.(check bool) "channels identified" true
    (result.Sim.leftover_channels <> []);
  let report = Format.asprintf "@[<v>%a@]" (Sim.pp_stuck g) result in
  Alcotest.(check bool) "names the subtract" true
    (Harness.contains report "Subtract")

let suite =
  suite
  @ [ Alcotest.test_case "sim: stuck diagnostics" `Quick test_stuck_diagnostics ]

let test_max_events_cap () =
  let frame = Size.v 4 3 in
  let frames = Image.Gen.frame_sequence ~seed:2 frame 3 in
  let g, _ = forward_chain ~frame ~rate:(Rate.hz 30.) ~frames ~stages:2 () in
  let result =
    Sim.run ~max_events:10 ~graph:g ~mapping:(Mapping.one_to_one g)
      ~machine:Machine.default ()
  in
  Alcotest.(check bool) "flagged as cut short" true result.Sim.timed_out

let test_pe_budget_exceeded () =
  let inst =
    Bp_apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 30.)
      ~n_frames:1 ()
  in
  let machine =
    Machine.v ~max_pes:2 Machine.default.Machine.pe
  in
  let compiled = Pipeline.compile ~machine inst.Bp_apps.App.graph in
  Harness.expect_error (Err.Resource_exhausted "") (fun () ->
      ignore (Plan.mapping compiled ~policy:Plan.Greedy))

let suite =
  suite
  @ [
      Alcotest.test_case "sim: max events cap" `Quick test_max_events_cap;
      Alcotest.test_case "pipeline: PE budget exceeded" `Quick
        test_pe_budget_exceeded;
    ]
