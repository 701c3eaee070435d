(* Wake elision, the engine's quasi-static mode.

   Pins the exactness claims of the elision switch ([Plan.run_plan
   ?elide], [Sweep.simulate_jobs ?elide]):
   - a run with elision on is bit-exact against the same plan with
     elision off — every result field compared, floats, event counts and
     pool counters included; only [static_elided_events] may differ;
     every suite run drains;
   - every suite run elides at least a quarter of its events — without
     that floor the differential could pass while comparing two
     event-driven runs;
   - the same holds for runs executed by the sweep driver.

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

(* Each entry runs two ways, elision on and off; they agree on every
   field but the elided-wake count. The allocation-naive engine is
   [Sim_reference], held to the pooled engine field by field in
   test/test_differential.ml. *)
let test_static_vs_dynamic_differential () =
  List.iter
    (fun label ->
      List.iter
        (fun policy ->
          let tag =
            Printf.sprintf "%s/%s" label (Plan.policy_name policy)
          in
          let run ~elide =
            let _, plan = compile_suite_entry label in
            Plan.run_plan ~elide ~policy plan ()
          in
          let dyn = run ~elide:false in
          let st = run ~elide:true in
          Alcotest.(check bool)
            (tag ^ ": every non-telemetry result field bit-identical")
            true
            (strip_elided dyn = strip_elided st);
          Alcotest.(check int) (tag ^ ": every run drains") 0
            dyn.Sim.leftover_items;
          Alcotest.(check int)
            (tag ^ ": elision off elides nothing")
            0 dyn.Sim.static_elided_events;
          let elided =
            float_of_int st.Sim.static_elided_events
            /. float_of_int st.Sim.events_processed
          in
          if elided < 0.25 then
            Alcotest.failf "%s: elided share %.3f below 0.25" tag elided)
        [ Plan.One_to_one; Plan.Greedy ])
    Apps.Suite.labels

(* The differential must also hold when runs execute under the sweep
   driver (the sharded path reuses one chunk pool per domain, so the
   [pool] telemetry legitimately differs between batches and is
   normalized out along with the elided-wake count). *)
let test_sweep_static_differential () =
  let e = Apps.Suite.by_label "1" in
  let jobs =
    List.map
      (fun policy ->
        {
          Sweep.label = "1";
          machine = e.Apps.Suite.machine;
          policy;
          build = (fun () -> (e.Apps.Suite.build ()).App.graph);
        })
      [ Plan.One_to_one; Plan.Greedy ]
  in
  let sig_of (outcomes : Sweep.outcome list) =
    List.map
      (fun (o : Sweep.outcome) ->
        ( o.Sweep.o_label,
          Plan.policy_name o.Sweep.o_policy,
          { (strip_elided o.Sweep.o_result) with Sim.pool = None } ))
      outcomes
  in
  Sweep.with_pool (fun pool ->
      let st = sig_of (Sweep.simulate_jobs pool jobs) in
      let dyn = sig_of (Sweep.simulate_jobs ~elide:false pool jobs) in
      Alcotest.(check bool)
        "sweep outcomes bit-identical with elision on and off" true
        (st = dyn))

let suite =
  [
    Alcotest.test_case "static vs dynamic, whole suite, both policies" `Slow
      test_static_vs_dynamic_differential;
    Alcotest.test_case "sweep path bit-identical with static on/off" `Quick
      test_sweep_static_differential;
  ]
