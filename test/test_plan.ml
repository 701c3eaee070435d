(* The staged pass manager and the Plan artifact.

   The guarantees pinned here:
   - every compile yields a complete plan: both mappings realized (or a
     recorded greedy overflow), a schedulability verdict, timings for
     all eight passes in order, the last of them [map];
   - [Plan.placement] anneals on demand, deterministically, and gives
     the placements the retired [place] pass stored;
   - diagnostics are deterministic: two compiles of the same program
     render identical diagnostic lists;
   - a failing pass leaves evidence behind: the error names the pass and
     keeps its class, the caller's diagnostic buffer holds an error
     entry, and the pass manager records the partial timing of the very
     pass that raised;
   - the pass clock is monotonic. *)

open Block_parallel
open Harness

let pass_names =
  [
    "validate"; "analyze-pre"; "align"; "buffering"; "parallelize";
    "analyze-post"; "schedulability"; "map";
  ]

(* A freshly built instance per compile: behaviour state and sink
   collectors are per-instance, and compiling mutates the graph. *)
let compile_suite_entry label =
  let e = Apps.Suite.by_label label in
  let inst = e.Apps.Suite.build () in
  (inst, Pipeline.compile ~machine:e.Apps.Suite.machine inst.App.graph)

(* Mesh side and cost (word-hops/frame) of each suite entry's placement
   per policy, as the compile-time [place] pass stored them before
   placement moved out of the pass list. *)
let expected_placements =
  [
    ("1", (2, 2588.), (2, 2588.));
    ("1F", (2, 2588.), (2, 2588.));
    ("2", (2, 64.), (1, 0.));
    ("2F", (3, 656.), (3, 560.));
    ("3", (4, 119208.), (4, 104080.));
    ("4", (3, 10328.), (3, 9884.));
    ("SS", (4, 17072.), (3, 12656.));
    ("SF", (4, 26800.), (3, 20000.));
    ("BS", (5, 0x1.3f1eeeeeeeeeep+17), (5, 0x1.4c35555555556p+17));
    ("BF", (6, 0x1.759d111111111p+17), (6, 200416.));
    ("5", (4, 17072.), (3, 15160.));
  ]

let test_plan_completeness () =
  Alcotest.(check (list string))
    "every suite entry has a pinned placement" Apps.Suite.labels
    (List.map (fun (l, _, _) -> l) expected_placements);
  List.iter
    (fun (label, one_to_one, greedy) ->
      let _, plan = compile_suite_entry label in
      Alcotest.(check (list string))
        (label ^ ": all passes timed, in order")
        pass_names
        (List.map (fun (p : Pipeline.pass_timing) -> p.Pipeline.pass)
           plan.Pipeline.timings);
      Alcotest.(check bool)
        (label ^ ": schedulability covers the graph")
        true
        (plan.Pipeline.schedulability.Schedulability.nodes <> []);
      let check_mapped policy expected =
        let m = Plan.mapped plan ~policy in
        let pes = List.length m.Plan.groups in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s mapping non-empty" label
             (Plan.policy_name policy))
          true (pes > 0);
        Alcotest.(check int)
          (Printf.sprintf "%s: %s mapping covers its groups" label
             (Plan.policy_name policy))
          pes
          (Mapping.processors m.Plan.mapping);
        let tag what =
          Printf.sprintf "%s: %s placement %s" label
            (Plan.policy_name policy) what
        in
        let p = Plan.placement plan ~policy in
        let again = Plan.placement plan ~policy in
        Alcotest.(check int) (tag "mesh side, two calls")
          p.Placement.mesh_side again.Placement.mesh_side;
        Alcotest.(check (float 0.)) (tag "cost, two calls") p.Placement.cost
          again.Placement.cost;
        for proc = 0 to pes - 1 do
          Alcotest.(check (pair int int))
            (tag (Printf.sprintf "tile of PE %d, two calls" proc))
            (p.Placement.tile_of proc)
            (again.Placement.tile_of proc)
        done;
        let side = p.Placement.mesh_side in
        Alcotest.(check bool) (tag "mesh holds the PEs") true
          (side * side >= pes);
        let want_side, want_cost = expected in
        Alcotest.(check int) (tag "mesh side") want_side side;
        Alcotest.(check (float 0.)) (tag "cost") want_cost p.Placement.cost
      in
      check_mapped Plan.One_to_one one_to_one;
      (* Every suite machine fits its greedy mapping. *)
      check_mapped Plan.Greedy greedy;
      Alcotest.(check bool)
        (label ^ ": greedy grouping recorded")
        true
        (plan.Pipeline.greedy_groups <> []);
      Alcotest.(check (list string))
        (label ^ ": no error diagnostics on a successful compile")
        []
        (List.map Diag.to_string (Plan.errors plan)))
    expected_placements

let test_diagnostics_deterministic () =
  List.iter
    (fun label ->
      let render plan =
        List.map Diag.to_string plan.Pipeline.diagnostics
      in
      let _, a = compile_suite_entry label in
      let _, b = compile_suite_entry label in
      Alcotest.(check bool)
        (label ^ ": at least one diagnostic (mapping summary)")
        true
        (render a <> []);
      Alcotest.(check (list string))
        (label ^ ": diagnostic lists identical across compiles")
        (render a) (render b))
    Apps.Suite.labels

(* An undecoupled feedback loop: graph validation rejects the cycle, so
   compile dies inside the very first pass. *)
let undecoupled_loop () =
  let g = Graph.create () in
  let frame = Size.v 4 4 in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate = Rate.hz 10. })
      (Source.spec ~frame ~frames:[] ())
  in
  let combine = Graph.add g (Feedback.loop_combine ( +. )) in
  let fwd = Graph.add g (Arith.forward ()) in
  let c = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel c ()) in
  Graph.connect g ~from:(src, "out") ~into:(combine, "in0");
  Graph.connect g ~from:(combine, "out") ~into:(fwd, "in");
  Graph.connect g ~from:(fwd, "out") ~into:(combine, "in1");
  Graph.connect g ~from:(combine, "out") ~into:(sink, "in");
  g

let test_failing_pass_evidence () =
  let diags = Diag.buffer () in
  (* The class survives the wrapping... *)
  expect_error (Err.Graph_malformed "") (fun () ->
      ignore (Pipeline.compile ~diags ~machine:Machine.default
                (undecoupled_loop ())));
  (* ...the message names the pass... *)
  (match
     Err.guard (fun () ->
         ignore (Pipeline.compile ~machine:Machine.default
                   (undecoupled_loop ())))
   with
  | Ok _ -> Alcotest.fail "expected the undecoupled loop to be rejected"
  | Error e ->
    Alcotest.(check bool)
      "error message names the failing pass" true
      (contains (Err.to_string e) "pass validate:"));
  (* ...and the caller's buffer holds the error diagnostic. *)
  match Diag.errors (Diag.list diags) with
  | [] -> Alcotest.fail "no error diagnostic accumulated"
  | d :: _ ->
    Alcotest.(check string) "diagnostic carries pass provenance"
      "validate" d.Diag.pass

(* Satellite 1, pinned at the pass-manager level where the timings ref
   is caller-visible: a raising pass still records its partial timing. *)
let test_failing_pass_partial_timing () =
  let g = (Apps.Suite.by_label "1").Apps.Suite.build () in
  let graph = g.App.graph in
  let diags = Diag.buffer () in
  let timings = ref [] in
  let boom = Pass.v "boom" (fun _ -> Err.invalidf "deliberate failure") in
  let fine = Pass.v "fine" (fun _ -> ()) in
  (match
     Err.guard (fun () ->
         Pass.run_all ~graph:(fun () -> graph) ~diags ~timings ()
           [ fine; boom; fine ])
   with
  | Ok () -> Alcotest.fail "expected the boom pass to fail"
  | Error e ->
    Alcotest.check err_kind "class preserved through the barrier"
      (Err.Invalid_parameterization "") e;
    Alcotest.(check bool) "wrapped with the pass name" true
      (contains (Err.to_string e) "pass boom:"));
  Alcotest.(check (list string))
    "partial timings include the failing pass, nothing after it"
    [ "fine"; "boom" ]
    (List.map (fun (t : Pass.timing) -> t.Pass.pass) !timings);
  List.iter
    (fun (t : Pass.timing) ->
      Alcotest.(check bool)
        (t.Pass.pass ^ ": wall time non-negative")
        true (t.Pass.wall_s >= 0.))
    !timings;
  match Diag.list diags with
  | [ d ] ->
    Alcotest.(check string) "one error diagnostic, from boom" "boom"
      d.Diag.pass;
    Alcotest.(check bool) "error severity" true
      (d.Diag.severity = Diag.Error)
  | ds ->
    Alcotest.failf "expected exactly one diagnostic, got %d"
      (List.length ds)

let test_invariant_failure_names_both () =
  let diags = Diag.buffer () in
  let timings = ref [] in
  let bad =
    Pass.v
      ~invariants:[ ("self-check", fun _ -> Err.graphf "broken invariant") ]
      "shaky"
      (fun _ -> ())
  in
  (match
     Err.guard (fun () ->
         Pass.run_all
           ~graph:(fun () -> Graph.create ())
           ~diags ~timings () [ bad ])
   with
  | Ok () -> Alcotest.fail "expected the invariant to fail"
  | Error e ->
    let s = Err.to_string e in
    Alcotest.(check bool) "names pass and invariant" true
      (contains s "pass shaky/self-check:"));
  Alcotest.(check (list string))
    "invariant time lands in the pass's timing" [ "shaky" ]
    (List.map (fun (t : Pass.timing) -> t.Pass.pass) !timings)

let test_wrap_err_preserves_class () =
  List.iter
    (fun e ->
      let w = Pass.wrap_err ~pass:"p" e in
      Alcotest.check err_kind "same constructor" e w;
      Alcotest.(check bool) "prefixed" true
        (contains (Err.to_string w) "pass p:"))
    [
      Err.Invalid_parameterization "x";
      Err.Graph_malformed "x";
      Err.Rate_mismatch "x";
      Err.Alignment_error "x";
      Err.Resource_exhausted "x";
      Err.Not_schedulable "x";
      Err.Unsupported "x";
    ]

let test_after_pass_hook () =
  let seen = ref [] in
  let inst = (Apps.Suite.by_label "1").Apps.Suite.build () in
  let _ =
    Pipeline.compile ~machine:Machine.default
      ~after_pass:(fun ~pass g ->
        seen := (pass, Graph.size g) :: !seen)
      inst.App.graph
  in
  Alcotest.(check (list string))
    "hook fires once per pass, in order" pass_names
    (List.rev_map fst !seen);
  (* The hook sees the graph as each barrier leaves it: sizes are
     non-decreasing through the elaborating passes. *)
  let sizes = List.rev_map snd !seen in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "graph only grows at the barriers" true
    (nondecreasing sizes)

let test_greedy_overflow_is_recorded_not_raised () =
  let inst =
    Apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 30.)
      ~n_frames:1 ()
  in
  let machine = Machine.v ~max_pes:2 Machine.default.Machine.pe in
  (* Compilation itself succeeds... *)
  let plan = Pipeline.compile ~machine inst.App.graph in
  (* ...the 1:1 side is still fully realized... *)
  Alcotest.(check bool) "1:1 mapping present" true
    (List.length plan.Pipeline.one_to_one.Plan.groups > 0);
  (* ...the grouping is recorded even though it overflows... *)
  Alcotest.(check bool) "greedy grouping recorded" true
    (Plan.processors_needed plan ~policy:Plan.Greedy
     > machine.Machine.max_pes);
  (* ...reading the greedy mapping raises the recorded error... *)
  expect_error (Err.Resource_exhausted "") (fun () ->
      ignore (Plan.mapped plan ~policy:Plan.Greedy));
  (* ...and a warning diagnostic from the map pass tells the story. *)
  let warnings =
    List.filter
      (fun (d : Diag.t) ->
        d.Diag.severity = Diag.Warning && d.Diag.pass = "map")
      plan.Pipeline.diagnostics
  in
  Alcotest.(check bool) "warning diagnostic from the map pass" true
    (warnings <> [])

let test_clock_monotonic () =
  let prev = ref (Clock.now_s ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now_s () in
    if t < !prev then Alcotest.fail "clock went backwards";
    prev := t
  done;
  Alcotest.(check bool) "elapsed_s clamps negative intervals" true
    (Clock.elapsed_s ~since:(Clock.now_s () +. 60.) = 0.)

let test_explain_renders () =
  let _, plan = compile_suite_entry "1" in
  let s = Format.asprintf "@[<v>%a@]" Plan.pp_explain plan in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("explain mentions " ^ needle) true
        (contains s needle))
    ([ "compile passes:"; "schedulability:"; "mappings:"; "1:1"; "greedy" ]
    @ pass_names)

let suite =
  [
    Alcotest.test_case "every suite plan is complete" `Slow
      test_plan_completeness;
    Alcotest.test_case "diagnostics order is deterministic" `Slow
      test_diagnostics_deterministic;
    Alcotest.test_case "failing pass: class, name, diagnostic" `Quick
      test_failing_pass_evidence;
    Alcotest.test_case "failing pass: partial timing recorded" `Quick
      test_failing_pass_partial_timing;
    Alcotest.test_case "invariant failure names pass and invariant" `Quick
      test_invariant_failure_names_both;
    Alcotest.test_case "wrap_err preserves the error class" `Quick
      test_wrap_err_preserves_class;
    Alcotest.test_case "after_pass hook order and coverage" `Quick
      test_after_pass_hook;
    Alcotest.test_case "greedy overflow recorded, not raised" `Quick
      test_greedy_overflow_is_recorded_not_raised;
    Alcotest.test_case "pass clock is monotonic" `Quick test_clock_monotonic;
    Alcotest.test_case "--explain rendering covers the plan" `Quick
      test_explain_renders;
  ]
