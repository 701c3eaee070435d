(* Wake elision, the engine's quasi-static mode.

   The engine elides exactly when no observer is attached, so a run with
   a no-op observer is the event-driven baseline. Pins the exactness
   claims of that choice:
   - an unobserved run is bit-exact against the same plan run with a
     no-op observer — every result field compared, floats, event counts
     and pool counters included; only [static_elided_events] may differ,
     and it is 0 under observation; every suite run drains;
   - every suite run elides at least a quarter of its events — without
     that floor the differential could pass while comparing two
     event-driven runs;
   - the runaway cap [max_events] cuts both ways alike: an unobserved and
     an observed run time out at the same caps, and neither reports more
     than the cap plus the event that hit it.

   The engine's per-node firing counts are pinned separately, against
   [Sim_reference], in test/test_differential.ml. *)

open Block_parallel

let compile_suite_entry label =
  let e = Apps.Suite.by_label label in
  let inst = e.Apps.Suite.build () in
  (inst, Pipeline.compile ~machine:e.Apps.Suite.machine inst.App.graph)

(* Everything but the elided-wake count, normalized so the records can
   be compared structurally — the comparison is exact (floats
   included). *)
let strip_elided (r : Sim.result) = { r with Sim.static_elided_events = 0 }

(* Observes nothing, but its presence keeps the engine event-driven. *)
let no_op_observer ~time_s:_ ~proc:_ ~node:_ ~method_name:_ ~service_s:_ = ()

(* Each entry runs two ways, unobserved (elided) and with a no-op
   observer (event-driven); they agree on every field but the
   elided-wake count. The allocation-naive engine is [Sim_reference],
   held to the pooled engine field by field in
   test/test_differential.ml. *)
let test_static_vs_dynamic_differential () =
  List.iter
    (fun label ->
      List.iter
        (fun policy ->
          let tag =
            Printf.sprintf "%s/%s" label (Plan.policy_name policy)
          in
          let run ?observer () =
            let _, plan = compile_suite_entry label in
            Plan.run_plan ?observer ~policy plan ()
          in
          let dyn = run ~observer:no_op_observer () in
          let st = run () in
          Alcotest.(check bool)
            (tag ^ ": every non-telemetry result field bit-identical")
            true
            (strip_elided dyn = strip_elided st);
          Alcotest.(check int) (tag ^ ": every run drains") 0
            dyn.Sim.leftover_items;
          Alcotest.(check int)
            (tag ^ ": observation elides nothing")
            0 dyn.Sim.static_elided_events;
          let elided =
            float_of_int st.Sim.static_elided_events
            /. float_of_int st.Sim.events_processed
          in
          if elided < 0.25 then
            Alcotest.failf "%s: elided share %.3f below 0.25" tag elided)
        [ Plan.One_to_one; Plan.Greedy ])
    Apps.Suite.labels

(* One run of a plan under a cap, observed or not. Each run builds fresh
   behaviours, so a plan can be run again. *)
let capped_run plan ~policy ?observer ~max_events () =
  Sim.run ?observer ~max_events ~graph:plan.Plan.graph
    ~mapping:(Plan.mapping plan ~policy) ~machine:plan.Plan.machine ()

(* Run [plan] uncapped to learn its event count [n], then at each cap
   [caps n] unobserved and observed: both time out exactly when the cap
   is below [n], neither reports more than [cap + 1] events, and a run
   the cap does not cut is bit-identical across the two. *)
let check_caps tag plan ~policy caps =
  let n =
    (capped_run plan ~policy ~max_events:max_int ()).Sim.events_processed
  in
  List.iter
    (fun cap ->
      let tag = Printf.sprintf "%s cap %d of %d" tag cap n in
      let st = capped_run plan ~policy ~max_events:cap () in
      let dyn =
        capped_run plan ~policy ~observer:no_op_observer ~max_events:cap ()
      in
      Alcotest.(check bool) (tag ^ ": cut iff over the cap") (cap < n)
        dyn.Sim.timed_out;
      Alcotest.(check bool)
        (tag ^ ": unobserved run agrees")
        dyn.Sim.timed_out st.Sim.timed_out;
      List.iter
        (fun (side, (r : Sim.result)) ->
          if r.Sim.events_processed > cap + 1 then
            Alcotest.failf "%s: %s run reports %d events" tag side
              r.Sim.events_processed)
        [ ("unobserved", st); ("observed", dyn) ];
      if not st.Sim.timed_out then
        Alcotest.(check bool) (tag ^ ": uncut runs bit-identical") true
          (strip_elided dyn = strip_elided st))
    (caps n)

let test_event_cap_agrees () =
  List.iter
    (fun label ->
      let _, plan = compile_suite_entry label in
      List.iter
        (fun policy ->
          check_caps
            (Printf.sprintf "%s/%s" label (Plan.policy_name policy))
            plan ~policy
            (fun n -> [ n / 3; n / 2; n - 1; n; n + 1 ]))
        [ Plan.One_to_one; Plan.Greedy ])
    Apps.Suite.labels;
  let inst =
    Apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 30.)
      ~n_frames:2 ()
  in
  let plan = Pipeline.compile ~machine:Machine.default inst.App.graph in
  check_caps "image-pipeline 24x18" plan ~policy:Plan.One_to_one (fun n ->
      [ 4000; n / 4; n / 2; (3 * n) / 4; n - 1; n; n + 1 ])

let suite =
  [
    Alcotest.test_case "static vs dynamic, whole suite, both policies" `Slow
      test_static_vs_dynamic_differential;
    Alcotest.test_case "event cap cuts observed and unobserved alike" `Slow
      test_event_cap_agrees;
  ]
