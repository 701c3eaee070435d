(* The schedule pass and quasi-static execution.

   Pins the tentpole's exactness claims:
   - [Plan.run_plan] under quasi-static execution is bit-exact against
     the same plan forced event-driven — every result field compared,
     floats, event counts and pool counters included; only the
     [static_*] telemetry may differ; every suite run drains;
   - on the rate-static image-pipeline entries the tables match over
     half of all firings, and every suite run elides at least a quarter
     of its events — without that floor the differential could pass
     while comparing two event-driven runs;
   - the suite never desyncs ([static_fallback_events = 0]): per-node
     firing sequences are a function of input item sequences alone, so
     the untimed recorder's tables always match the timed run;
   - schedule regions partition the mapped graph (every node in exactly
     one region) and recompiling yields an identical artifact;
   - the recorder and the timed engine agree on every non-sink node's
     firing count, and the coverage bound bounds the runtime coverage;
   - a truncated recording is empty and leaves a run unchanged;
   - a hand-built three-kernel chain has the firing table one can derive
     on paper. *)

open Block_parallel

let compile_suite_entry label =
  let e = Apps.Suite.by_label label in
  let inst = e.Apps.Suite.build () in
  (inst, Pipeline.compile ~machine:e.Apps.Suite.machine inst.App.graph)

(* Everything but the static telemetry, normalized so the records can be
   compared structurally — the comparison is exact (floats included). *)
let strip_static (r : Sim.result) =
  {
    r with
    Sim.static_regions = 0;
    static_fired = 0;
    static_indexed_fired = 0;
    static_fallback_events = 0;
    static_elided_events = 0;
  }

(* The share of all firings that matched their firing tables. *)
let static_coverage (r : Sim.result) =
  let fires =
    List.fold_left
      (fun acc (_, (ns : Sim.node_stats)) -> acc + ns.Sim.node_fires)
      0 r.Sim.node_stats
  in
  float_of_int r.Sim.static_fired /. float_of_int fires

(* The image-pipeline entries are rate-static: no reactive merge and no
   user token keeps a kernel out of the static regions, so the tables
   match most firings. *)
let rate_static_labels = [ "SS"; "SF"; "BS"; "BF"; "5" ]

(* Each entry runs two ways, quasi-static and event-driven; they agree
   on every field but the static telemetry. The allocation-naive
   engine is [Sim_reference], held to the pooled engine field by field
   in test/test_differential.ml. *)
let test_static_vs_dynamic_differential () =
  let any_static = ref false in
  List.iter
    (fun label ->
      List.iter
        (fun policy ->
          let tag =
            Printf.sprintf "%s/%s" label (Plan.policy_name policy)
          in
          let run ~static =
            let _, plan = compile_suite_entry label in
            Plan.run_plan ~static ~policy plan ()
          in
          let dyn = run ~static:false in
          let st = run ~static:true in
          Alcotest.(check bool)
            (tag ^ ": every non-telemetry result field bit-identical")
            true
            (strip_static dyn = strip_static st);
          Alcotest.(check int) (tag ^ ": every run drains") 0
            dyn.Sim.leftover_items;
          Alcotest.(check int)
            (tag ^ ": event-driven run carries no static telemetry")
            0
            (dyn.Sim.static_regions + dyn.Sim.static_fired
           + dyn.Sim.static_indexed_fired + dyn.Sim.static_fallback_events
           + dyn.Sim.static_elided_events);
          Alcotest.(check int)
            (tag ^ ": no table desyncs across the suite")
            0 st.Sim.static_fallback_events;
          if List.mem label rate_static_labels then begin
            let coverage = static_coverage st in
            if coverage <= 0.5 then
              Alcotest.failf "%s: static coverage %.3f not above 0.5" tag
                coverage
          end;
          let elided =
            float_of_int st.Sim.static_elided_events
            /. float_of_int st.Sim.events_processed
          in
          if elided < 0.25 then
            Alcotest.failf "%s: elided share %.3f below 0.25" tag elided;
          if st.Sim.static_fired > 0 then any_static := true)
        [ Plan.One_to_one; Plan.Greedy ])
    Apps.Suite.labels;
  Alcotest.(check bool) "suite exercises the firing tables" true !any_static

(* One quasi-static run per suite entry and policy, shared by the
   recorder-vs-engine tests below. *)
let suite_runs =
  lazy
    (List.concat_map
       (fun label ->
         List.map
           (fun policy ->
             let _, plan = compile_suite_entry label in
             ( Printf.sprintf "%s/%s" label (Plan.policy_name policy),
               plan,
               Plan.run_plan ~policy plan () ))
           [ Plan.One_to_one; Plan.Greedy ])
       Apps.Suite.labels)

(* Kahn determinism across the two layers: the untimed recorder and the
   timed engine see every non-sink node fire the same number of times
   (sinks are drained raw by the recorder, so they never count). *)
let test_recorder_matches_engine () =
  List.iter
    (fun (tag, (plan : Pipeline.t), (r : Sim.result)) ->
      let sched = plan.Pipeline.schedule in
      let engine_fires =
        List.fold_left
          (fun acc (id, (ns : Sim.node_stats)) ->
            let node = Graph.node plan.Pipeline.graph id in
            match node.Graph.spec.Kernel.role with
            | Kernel.Sink -> acc
            | _ ->
              let recorded =
                match Static_schedule.table sched id with
                | Some t -> t.Static_schedule.t_firings
                | None -> 0
              in
              Alcotest.(check int)
                (Printf.sprintf "%s: %s fires as often as recorded" tag
                   node.Graph.name)
                recorded ns.Sim.node_fires;
              acc + ns.Sim.node_fires)
          0 r.Sim.node_stats
      in
      Alcotest.(check int)
        (tag ^ ": recorded firings = engine firings of non-sink nodes")
        sched.Static_schedule.recorded_firings engine_fires)
    (Lazy.force suite_runs)

let test_coverage_bound_holds () =
  List.iter
    (fun (tag, (plan : Pipeline.t), (r : Sim.result)) ->
      let coverage = static_coverage r in
      let bound = Static_schedule.coverage_bound plan.Pipeline.schedule in
      if coverage > bound then
        Alcotest.failf "%s: runtime static coverage %.4f above the bound %.4f"
          tag coverage bound)
    (Lazy.force suite_runs)

(* The recorder's firing cap: past it the artifact is empty and the
   engine must behave exactly as if no schedule had been supplied. *)
let test_truncated_schedule () =
  let e = Apps.Suite.by_label "SS" in
  let _, plan = compile_suite_entry "SS" in
  let graph = plan.Pipeline.graph in
  let mapping = Plan.mapping plan ~policy:Plan.One_to_one in
  let sched = Static_schedule.build ~max_firings:100 ~graph ~mapping () in
  Alcotest.(check bool) "truncated" true sched.Static_schedule.truncated;
  Alcotest.(check int) "firings counted up to the cap" 101
    sched.Static_schedule.recorded_firings;
  Alcotest.(check bool) "no tables, regions or projections" true
    (sched.Static_schedule.tables = []
    && sched.Static_schedule.regions = []
    && sched.Static_schedule.by_proc = []);
  let run ?static_schedule () =
    Sim.run ?static_schedule ~graph ~mapping ~machine:e.Apps.Suite.machine ()
  in
  let plain = run () and st = run ~static_schedule:sched () in
  Alcotest.(check bool) "run bit-identical to one without a schedule" true
    (plain = st);
  Alcotest.(check int) "no static telemetry" 0
    (st.Sim.static_regions + st.Sim.static_fired + st.Sim.static_indexed_fired
    + st.Sim.static_fallback_events + st.Sim.static_elided_events)

let test_region_partition_invariant () =
  List.iter
    (fun label ->
      let _, plan = compile_suite_entry label in
      let sched = plan.Pipeline.schedule in
      let graph = plan.Pipeline.graph in
      let ids =
        List.sort compare
          (List.map (fun n -> n.Graph.id) (Graph.nodes graph))
      in
      let region_members =
        List.concat_map
          (fun (r : Static_schedule.region) -> r.Static_schedule.r_nodes)
          sched.Static_schedule.regions
      in
      Alcotest.(check (list int))
        (label ^ ": regions partition the graph (each node exactly once)")
        ids
        (List.sort compare region_members);
      List.iter
        (fun (r : Static_schedule.region) ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s: region %d members ascending" label
               r.Static_schedule.r_id)
            r.Static_schedule.r_nodes
            (List.sort compare r.Static_schedule.r_nodes))
        sched.Static_schedule.regions;
      let static_members =
        List.concat_map
          (fun (r : Static_schedule.region) ->
            if r.Static_schedule.r_static then r.Static_schedule.r_nodes
            else [])
          sched.Static_schedule.regions
      in
      Alcotest.(check (list int))
        (label ^ ": static_node_ids lists exactly the static regions")
        (List.sort compare static_members)
        (List.sort compare (Static_schedule.static_node_ids sched));
      let cov = Static_schedule.coverage_bound sched in
      Alcotest.(check bool)
        (label ^ ": coverage bound within [0,1]")
        true
        (cov >= 0. && cov <= 1.))
    Apps.Suite.labels

let test_table_determinism () =
  List.iter
    (fun label ->
      let _, a = compile_suite_entry label in
      let _, b = compile_suite_entry label in
      Alcotest.(check bool)
        (label ^ ": recompiling yields an identical schedule artifact")
        true
        (a.Pipeline.schedule = b.Pipeline.schedule))
    Apps.Suite.labels

(* Byte determinism of the recorded tables: two independent compiles
   must serialize to identical bytes — a stricter check than structural
   equality (it also pins field order, sharing, and the absence of any
   nondeterministic state such as hashtable iteration order leaking into
   the artifact), and exactly what a cached-plan consumer relies on. *)
let test_resolve_byte_determinism () =
  List.iter
    (fun label ->
      let _, a = compile_suite_entry label in
      let _, b = compile_suite_entry label in
      let bytes (p : Pipeline.t) =
        Marshal.to_string p.Pipeline.schedule []
      in
      Alcotest.(check bool)
        (label ^ ": recorded schedule marshals to identical bytes")
        true
        (String.equal (bytes a) (bytes b));
      let render (p : Pipeline.t) =
        Format.asprintf "%a"
          (Static_schedule.pp p.Pipeline.graph)
          p.Pipeline.schedule
      in
      Alcotest.(check string)
        (label ^ ": --dump-after schedule rendering is byte-identical")
        (render a) (render b))
    Apps.Suite.labels

(* Known answer: src -> forward -> forward -> forward -> sink over a 2x2
   frame. The source emits pixel, pixel, EOL per row and EOF after the
   last row, so each forward kernel fires, per frame:
     run run <forward-token>  (row 0)
     run run <forward-token>  (row 1)
     <forward-token>          (EOF)
   With three recorded frames the second frame is the period and the
   third verifies it. *)
let test_known_answer_chain () =
  let frame = Size.v 2 2 in
  let frames = Image.Gen.frame_sequence ~seed:7 frame 3 in
  let g = Graph.create () in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate = Rate.hz 100. })
      (Source.spec ~frame ~frames ())
  in
  let f1 = Graph.add g (Arith.forward ()) in
  let f2 = Graph.add g (Arith.forward ()) in
  let f3 = Graph.add g (Arith.forward ()) in
  let collector = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel collector ()) in
  Graph.connect g ~from:(src, "out") ~into:(f1, "in");
  Graph.connect g ~from:(f1, "out") ~into:(f2, "in");
  Graph.connect g ~from:(f2, "out") ~into:(f3, "in");
  Graph.connect g ~from:(f3, "out") ~into:(sink, "in");
  let plan = Pipeline.compile ~machine:Machine.default g in
  let sched = plan.Pipeline.schedule in
  let fwd = Behaviour.forward_method_name in
  let expected = [ "run"; "run"; fwd; "run"; "run"; fwd; fwd ] in
  List.iter
    (fun node ->
      match Static_schedule.table sched node with
      | None ->
        Alcotest.failf "forward node %d has no firing table" node
      | Some t ->
        let methods entries =
          Array.to_list
            (Array.map
               (fun (e : Static_schedule.entry) -> e.Static_schedule.e_method)
               entries)
        in
        Alcotest.(check (list string))
          (Printf.sprintf "node %d prelude methods" node)
          expected
          (methods t.Static_schedule.t_prelude);
        Alcotest.(check (list string))
          (Printf.sprintf "node %d period methods" node)
          expected
          (methods t.Static_schedule.t_period);
        Alcotest.(check bool)
          (Printf.sprintf "node %d period verified by the third frame" node)
          true t.Static_schedule.t_verified;
        Alcotest.(check bool)
          (Printf.sprintf "node %d saw no user tokens" node)
          false t.Static_schedule.t_user_tokens;
        (* Every data firing moves one data item in, one out; the EOF
           firing forwards exactly the end-of-frame token. *)
        let kinds (e : Static_schedule.entry) =
          ( Array.to_list (Array.map snd e.Static_schedule.e_pops),
            Array.to_list (Array.map snd e.Static_schedule.e_pushes) )
        in
        Array.iter
          (fun (e : Static_schedule.entry) ->
            let pops, pushes = kinds e in
            if String.equal e.Static_schedule.e_method "run" then
              Alcotest.(check bool)
                (Printf.sprintf "node %d data firing moves data" node)
                true
                (pops = [ Static_schedule.K_data ]
                && pushes = [ Static_schedule.K_data ]))
          t.Static_schedule.t_period;
        let last =
          t.Static_schedule.t_period.(Array.length t.Static_schedule.t_period
                                      - 1)
        in
        let pops, pushes = kinds last in
        Alcotest.(check bool)
          (Printf.sprintf "node %d EOF firing forwards the EOF token" node)
          true
          (pops = [ Static_schedule.K_eof ]
          && pushes = [ Static_schedule.K_eof ]))
    [ f1; f2; f3 ];
  (* The chain is one static region; source and sink stay dynamic. *)
  let static_ids = Static_schedule.static_node_ids sched in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "forward node %d is in a static region" f)
        true (List.mem f static_ids))
    [ f1; f2; f3 ];
  Alcotest.(check bool) "source stays dynamic" false (List.mem src static_ids);
  Alcotest.(check bool) "sink stays dynamic" false (List.mem sink static_ids);
  (* And running it quasi-statically matches the table for every firing. *)
  let st = Plan.run_plan ~policy:Plan.One_to_one plan () in
  Alcotest.(check int) "chain run never desyncs" 0
    st.Sim.static_fallback_events;
  Alcotest.(check bool) "chain run fires from the tables" true
    (st.Sim.static_fired > 0)

(* The differential must also hold when runs execute under the sweep
   driver (the sharded path reuses one chunk pool per domain, so the
   [pool] telemetry legitimately differs between batches and is
   normalized out along with the static counters). *)
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
          { (strip_static o.Sweep.o_result) with Sim.pool = None } ))
      outcomes
  in
  Sweep.with_pool (fun pool ->
      let st = sig_of (Sweep.simulate_jobs pool jobs) in
      let dyn = sig_of (Sweep.simulate_jobs ~static:false pool jobs) in
      Alcotest.(check bool)
        "sweep outcomes bit-identical with and without quasi-static \
         execution"
        true (st = dyn))

let suite =
  [
    Alcotest.test_case "static vs dynamic, whole suite, both policies" `Slow
      test_static_vs_dynamic_differential;
    Alcotest.test_case "regions partition every suite graph" `Slow
      test_region_partition_invariant;
    Alcotest.test_case "schedule artifact deterministic across compiles"
      `Slow test_table_determinism;
    Alcotest.test_case "resolved tables byte-deterministic" `Slow
      test_resolve_byte_determinism;
    Alcotest.test_case "known-answer firing table for a 3-kernel chain"
      `Quick test_known_answer_chain;
    Alcotest.test_case "sweep path bit-identical with static on/off" `Quick
      test_sweep_static_differential;
    Alcotest.test_case "recorder and engine agree on firing counts" `Slow
      test_recorder_matches_engine;
    Alcotest.test_case "coverage bound bounds the runtime coverage" `Slow
      test_coverage_bound_holds;
    Alcotest.test_case "truncated schedule: empty, engine unaffected" `Quick
      test_truncated_schedule;
  ]
