(* bpc — the block-parallel compiler driver.

   Subcommands: list, compile, simulate, report. See [bpc --help]. *)

open Cmdliner
open Bp_geometry
module Pipeline = Bp_compiler.Pipeline
module Plan = Bp_compiler.Plan
module Diag = Bp_util.Diag
module Sim = Bp_sim.Sim
module App = Bp_apps.App

let apps :
    (string * (frame:Size.t -> rate:Rate.t -> n_frames:int -> App.instance))
    list =
  [
    ( "image-pipeline",
      fun ~frame ~rate ~n_frames ->
        Bp_apps.Image_pipeline.v ~frame ~rate ~n_frames () );
    ("bayer", fun ~frame ~rate ~n_frames -> Bp_apps.Bayer_app.v ~frame ~rate ~n_frames ());
    ( "histogram",
      fun ~frame ~rate ~n_frames ->
        Bp_apps.Histogram_app.v ~frame ~rate ~n_frames () );
    ( "multi-conv",
      fun ~frame ~rate ~n_frames -> Bp_apps.Multi_conv.v ~frame ~rate ~n_frames () );
    ( "parallel-buffer",
      fun ~frame ~rate ~n_frames ->
        Bp_apps.Parallel_buffer.v ~frame ~rate ~n_frames () );
    ( "edge-detect",
      fun ~frame ~rate ~n_frames -> Bp_apps.Edge_app.v ~frame ~rate ~n_frames () );
    ( "motion-detect",
      fun ~frame ~rate ~n_frames ->
        Bp_apps.Motion_app.v ~frame ~rate ~n_frames () );
    ( "resample",
      fun ~frame ~rate ~n_frames ->
        Bp_apps.Resample_app.v
          ~frame:(Size.v (max frame.Size.w 16) 1)
          ~rate ~n_frames () );
    ( "downsample",
      fun ~frame ~rate ~n_frames ->
        Bp_apps.Downsample_app.v ~frame ~rate ~n_frames () );
    ( "feedback",
      fun ~frame ~rate ~n_frames ->
        Bp_apps.Feedback_app.v ~frame ~rate ~n_frames () );
  ]

let build_app name ~frame ~rate ~n_frames =
  match List.assoc_opt name apps with
  | Some f -> f ~frame ~rate ~n_frames
  | None ->
    Bp_util.Err.unsupportedf "unknown app %S (try: %s)" name
      (String.concat ", " (List.map fst apps))

(* --- common options ---------------------------------------------------- *)

let app_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"APP" ~doc:"Application to build (see $(b,bpc list)).")

let width_arg =
  Arg.(value & opt int 24 & info [ "width" ] ~docv:"W" ~doc:"Frame width.")

let height_arg =
  Arg.(value & opt int 18 & info [ "height" ] ~docv:"H" ~doc:"Frame height.")

let rate_arg =
  Arg.(
    value & opt float 30.
    & info [ "rate" ] ~docv:"HZ" ~doc:"Input frame rate (frames/second).")

let frames_arg =
  Arg.(
    value & opt int 3
    & info [ "frames" ] ~docv:"N" ~doc:"Number of frames to stream.")

let machine_arg =
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) Bp_machine.Machine.names)) "default"
    & info [ "machine" ] ~docv:"M" ~doc:"Target machine model.")

let policy_arg =
  Arg.(
    value
    & opt (enum [ ("trim", "trim"); ("pad", "pad") ]) "trim"
    & info [ "policy" ] ~doc:"Alignment repair policy: trim or pad.")

let greedy_arg =
  Arg.(
    value & flag
    & info [ "greedy"; "g" ] ~doc:"Use the greedy multiplexed mapping.")

let dot_arg =
  Arg.(
    value & opt (some string) None
    & info [ "dot" ] ~docv:"FILE" ~doc:"Write the elaborated graph as DOT.")

let policy_of = function
  | "pad" -> Bp_transform.Align.Pad_zero
  | _ -> Bp_transform.Align.Trim

let handle_errors f =
  match Bp_util.Err.guard f with
  | Ok () -> 0
  | Error e ->
    Format.eprintf "bpc: %a@." Bp_util.Err.pp e;
    1

(* Like [handle_errors], but [f] chooses the exit code — simulate uses it
   to fail the process (and thus CI smokes) on real-time misses. *)
let handle_errors_code f =
  match Bp_util.Err.guard f with
  | Ok code -> code
  | Error e ->
    Format.eprintf "bpc: %a@." Bp_util.Err.pp e;
    1

let compile_common ?diags ?after_pass app width height rate frames machine
    policy =
  let frame = Size.v width height in
  let rate = Rate.hz rate in
  let inst = build_app app ~frame ~rate ~n_frames:frames in
  let machine = Bp_machine.Machine.by_name machine in
  let compiled =
    Pipeline.compile ~align_policy:(policy_of policy) ?diags ?after_pass
      ~machine inst.App.graph
  in
  (inst, compiled)

let policy_of_greedy greedy = if greedy then Plan.Greedy else Plan.One_to_one

(* --- subcommands ------------------------------------------------------- *)

let list_cmd =
  let run () =
    print_endline "applications:";
    List.iter (fun (n, _) -> Printf.printf "  %s\n" n) apps;
    print_endline "machines:";
    List.iter (fun n -> Printf.printf "  %s\n" n) Bp_machine.Machine.names;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List applications and machine models")
    Term.(const run $ const ())

let dump_after_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-after" ] ~docv:"PASS"
        ~doc:
          "Print the graph (nodes, roles, channel counts) as it stands \
           after the named compile pass — one of validate, analyze-pre, \
           align, buffering, parallelize, analyze-post, schedulability, \
           map.")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print the full compilation story: per-pass timings, \
           accumulated diagnostics, the schedulability verdict, and both \
           mappings with their placements, annealed for this view. Exits \
           non-zero if any error-severity diagnostic was emitted.")

let compile_cmd =
  let run app width height rate frames machine policy greedy dot dump_after
      explain =
    handle_errors_code @@ fun () ->
    let dumped = ref false in
    let after_pass =
      Option.map
        (fun which ~pass g ->
          if String.equal pass which then begin
            dumped := true;
            Format.printf "@[<v>after pass %s:@,%a@]@." pass
              Bp_graph.Graph.pp_summary g
          end)
        dump_after
    in
    let diags = Diag.buffer () in
    (* Run compile under our own guard so a failing pass still shows the
       diagnostics it accumulated (the failing pass's name included). *)
    match
      Bp_util.Err.guard (fun () ->
          compile_common ~diags ?after_pass app width height rate frames
            machine policy)
    with
    | Error e ->
      Format.eprintf "bpc: %a@." Bp_util.Err.pp e;
      Format.eprintf "@[<v>%a@]@?" Diag.pp_list (Diag.list diags);
      1
    | Ok (_inst, compiled) ->
      (match dump_after with
      | Some which when not !dumped ->
        Bp_util.Err.unsupportedf "--dump-after: no pass named %S ran" which
      | _ -> ());
      Format.printf "%a" Pipeline.pp_summary compiled;
      if explain then Format.printf "%a@." Plan.pp_explain compiled
      else Format.printf "%a@." Pipeline.pp_passes compiled;
      Format.printf "%a" Bp_analysis.Dataflow.pp_report
        compiled.Pipeline.analysis;
      (match dot with
      | Some path ->
        let groups =
          (Plan.mapped compiled ~policy:(policy_of_greedy greedy)).Plan.groups
        in
        Bp_viz.Dot.write_file ~path
          (Bp_viz.Dot.to_dot ~title:app ~groups compiled.Pipeline.graph);
        Format.printf "wrote %s@." path
      | None -> ());
      if explain && Plan.errors compiled <> [] then 1 else 0
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile an application and print the analysis")
    Term.(
      const run $ app_arg $ width_arg $ height_arg $ rate_arg $ frames_arg
      $ machine_arg $ policy_arg $ greedy_arg $ dot_arg $ dump_after_arg
      $ explain_arg)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON file of the run (one track per \
           PE, counter tracks for channel occupancy, compile passes) — \
           open it in Perfetto or chrome://tracing.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the structured metrics snapshot (counters, gauges, \
           histograms; see docs/OBSERVABILITY.md) as JSON.")

let health_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "health" ] ~docv:"FILE"
        ~doc:
          "Write the real-time health snapshot (per-kernel busy/blocked/idle \
           breakdown, per-frame latency and deadline accounting, channel \
           high-watermarks, bottleneck verdict; see docs/OBSERVABILITY.md) \
           as JSON.")

let gantt_arg =
  Arg.(
    value & flag
    & info [ "gantt" ] ~doc:"Print a per-processor ASCII Gantt chart.")

let energy_arg =
  Arg.(
    value & flag
    & info [ "energy" ] ~doc:"Print a first-order energy estimate.")

let sched_arg =
  Arg.(
    value & flag
    & info [ "schedulability" ]
        ~doc:"Print the static per-kernel utilization report.")

let no_elide_arg =
  Arg.(
    value & flag
    & info [ "no-elide" ]
        ~doc:
          "Turn wake elision off: dispatch fully event-driven, examining \
           every end-of-service wake even where the kernels' starvation \
           oracles prove it would decline. Results are bit-identical — \
           only wall time and the elided-event count change (see \
           docs/PERFORMANCE.md).")

let simulate_cmd =
  let run app width height rate frames machine policy greedy trace metrics
      health gantt energy sched no_elide =
    handle_errors_code @@ fun () ->
    let inst, compiled =
      compile_common app width height rate frames machine policy
    in
    Format.printf "%a" Pipeline.pp_summary compiled;
    if sched then
      Format.printf "@[<v>%a@]@." Bp_transform.Schedulability.pp
        compiled.Pipeline.schedulability;
    (* Observability is strictly pay-when-used: each recorder attaches
       only when an artifact that needs it was requested, because any
       attached observer (correctly) turns wake elision off — a bare
       [bpc simulate] measures the fast path. *)
    let want_trace = Option.is_some trace in
    let recorder =
      if want_trace || gantt then Some (Bp_sim.Trace.recorder ()) else None
    in
    let obs =
      if want_trace || Option.is_some metrics then
        Some (Bp_obs.Instrument.create ~graph:compiled.Pipeline.graph ())
      else None
    in
    let hlt =
      if want_trace || Option.is_some health then
        Some (Bp_obs.Health.create ~graph:compiled.Pipeline.graph ())
      else None
    in
    let observer =
      match
        List.filter_map Fun.id
          [
            Option.map snd recorder;
            Option.map Bp_obs.Instrument.observer obs;
          ]
      with
      | [] -> None
      | fs -> Some (Bp_obs.Instrument.compose fs)
    in
    let gc_before = Bp_obs.Metrics.gc_snapshot () in
    let wall_t0 = Bp_util.Clock.now_s () in
    let result =
      Plan.run_plan ~elide:(not no_elide) ?observer
        ?channel_observer:(Option.map Bp_obs.Instrument.channel_observer obs)
        ?state_observer:(Option.map Bp_obs.Health.state_observer hlt)
        ~policy:(policy_of_greedy greedy) compiled ()
    in
    let wall_s = Bp_util.Clock.elapsed_s ~since:wall_t0 in
    let gc_after = Bp_obs.Metrics.gc_snapshot () in
    Option.iter (fun o -> Bp_obs.Instrument.finalize o ~result) obs;
    Option.iter (fun h -> Bp_obs.Health.finalize h ~result ()) hlt;
    Option.iter
      (fun o ->
        let reg = Bp_obs.Instrument.metrics o in
        Bp_obs.Instrument.record_compile reg compiled;
        Bp_obs.Metrics.record_gc reg ~before:gc_before ~after:gc_after ();
        match result.Sim.pool with
        | Some p ->
          Bp_obs.Metrics.record_pool reg ~hits:p.Bp_image.Pool.hits
            ~misses:p.Bp_image.Pool.misses ~releases:p.Bp_image.Pool.releases
            ~live:p.Bp_image.Pool.live ()
        | None -> ())
      obs;
    Format.printf "%a@." Sim.pp_result result;
    let events_f = float_of_int result.Sim.events_processed in
    let minor_w =
      gc_after.Bp_obs.Metrics.gc_minor_words
      -. gc_before.Bp_obs.Metrics.gc_minor_words
    in
    Format.printf "wall: %.1f ms, %d events (%.0f events/s)@."
      (wall_s *. 1e3) result.Sim.events_processed
      (if wall_s > 0. then events_f /. wall_s else 0.);
    Format.printf "alloc: %.1f minor words/event%s@."
      (if events_f > 0. then minor_w /. events_f else 0.)
      (match result.Sim.pool with
      | Some p ->
        let acquires = p.Bp_image.Pool.hits + p.Bp_image.Pool.misses in
        Printf.sprintf ", pool hit rate %.1f%% (%d hits, %d misses, %d live)"
          (if acquires = 0 then 0.
           else 100. *. float_of_int p.Bp_image.Pool.hits
                /. float_of_int acquires)
          p.Bp_image.Pool.hits p.Bp_image.Pool.misses p.Bp_image.Pool.live
      | None -> "");
    (* Elision ran only with the switch on and no observer attached. *)
    if (not no_elide) && Option.is_none observer && Option.is_none hlt then
      Format.printf "elision: %d dispatched + %d elided events@."
        (result.Sim.events_processed - result.Sim.static_elided_events)
        result.Sim.static_elided_events;
    Option.iter
      (fun (recorded, _) ->
        if gantt then print_string (Bp_sim.Trace.gantt recorded))
      recorder;
    (match (trace, recorder, obs, hlt) with
    | Some path, Some (recorded, _), Some obs, Some hlt ->
      Bp_obs.Chrome_trace.write_file ~path
        (Bp_obs.Chrome_trace.of_run
           ~compile_passes:compiled.Pipeline.timings ~instrument:obs
           ~health:hlt ~graph:compiled.Pipeline.graph ~trace:recorded ());
      Format.printf "wrote %s@." path
    | _ -> ());
    (match (metrics, obs) with
    | Some path, Some obs ->
      Bp_obs.Json.write_file ~path
        (Bp_obs.Metrics.to_json (Bp_obs.Instrument.metrics obs));
      Format.printf "wrote %s@." path
    | _ -> ());
    (match (health, hlt) with
    | Some path, Some hlt ->
      Bp_obs.Json.write_file ~path (Bp_obs.Health.to_json hlt);
      Format.printf "wrote %s@." path
    | _ -> ());
    if energy then
      Format.printf "%a@." Bp_sim.Energy.pp
        (Bp_sim.Energy.of_result ~machine:compiled.Pipeline.machine result);
    let diffs, ok = App.verify inst result in
    List.iter
      (fun (label, d) -> Format.printf "  %s: max |diff| = %g@." label d)
      diffs;
    let verdict =
      Sim.real_time_verdict result ~expected_frames:inst.App.n_frames
        ~period_s:(App.period_s inst)
        ~allowed_leftover:inst.App.allowed_leftover ()
    in
    Format.printf "functional: %s; real-time: %s (%d frames, worst interval \
                   %.3fms)@."
      (if ok then "exact" else "MISMATCH")
      (if verdict.Sim.met then "met" else "MISSED")
      verdict.Sim.frames_delivered
      (1000. *. verdict.Sim.worst_frame_interval_s);
    (* Fail the process on a real-time miss, a deadlock/timeout, or a
       functional mismatch, so CI smokes catch regressions. *)
    if (not verdict.Sim.met) || result.Sim.timed_out || not ok then 1 else 0
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compile APP, run the timing-accurate simulation, check the \
         outputs against the reference image operations, and verify the \
         declared input rate was sustained. Exits non-zero when the run \
         misses the declared rate, deadlocks, or miscomputes.";
      `P
        "Artifact flags, all optional and composable: $(b,--trace) FILE \
         writes a Chrome trace_event timeline, $(b,--metrics) FILE the \
         structured metrics snapshot, $(b,--health) FILE the real-time \
         health snapshot (all JSON; contracts in docs/OBSERVABILITY.md). \
         $(b,--no-elide) turns wake elision off and dispatches fully \
         event-driven (docs/PERFORMANCE.md) — results are bit-identical \
         either way. Observer-backed artifacts \
         ($(b,--trace)/$(b,--metrics)/$(b,--health)/$(b,--gantt)) \
         themselves drop the run to event-driven dispatch, so a bare \
         $(b,bpc simulate) is also the throughput-measurement \
         configuration.";
    ]
  in
  Cmd.v
    (Cmd.info "simulate" ~man
       ~doc:
         "Compile, simulate, and verify function and throughput (exits \
          non-zero when the run misses the declared rate, deadlocks, or \
          miscomputes); --trace/--metrics/--health write JSON artifacts, \
          --no-elide A/Bs wake elision")
    Term.(
      const run $ app_arg $ width_arg $ height_arg $ rate_arg $ frames_arg
      $ machine_arg $ policy_arg $ greedy_arg $ trace_arg $ metrics_arg
      $ health_arg $ gantt_arg $ energy_arg $ sched_arg $ no_elide_arg)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains to shard independent compile+simulate tasks \
           across (1 = serial, inline). Merged results are bit-identical \
           for every N (docs/PARALLELISM.md); only wall time and the \
           per-domain telemetry change.")

let sweep_cmd =
  let module Sweep = Bp_compiler.Sweep in
  let module Suite = Bp_apps.Suite in
  let labels_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"LABEL"
          ~doc:
            "Suite entries to sweep (default: the full Figure 13 suite; \
             see labels in $(b,bpc report fig13)).")
  in
  let run labels jobs metrics no_elide =
    handle_errors_code @@ fun () ->
    let entries =
      match labels with
      | [] -> Suite.entries
      | ls -> List.map Suite.by_label ls
    in
    let tasks =
      List.concat_map
        (fun (e : Suite.entry) ->
          List.map
            (fun policy ->
              {
                Bp_compiler.Sweep.label = e.Suite.label;
                machine = e.Suite.machine;
                policy;
                build = (fun () -> (e.Suite.build ()).App.graph);
              })
            [ Plan.One_to_one; Plan.Greedy ])
        entries
    in
    let t0 = Bp_util.Clock.now_s () in
    Sweep.with_pool ~domains:jobs @@ fun pool ->
    let outcomes = Sweep.simulate_jobs ~elide:(not no_elide) pool tasks in
    let wall_s = Bp_util.Clock.elapsed_s ~since:t0 in
    (* The merged table is part of the determinism contract: identical
       for every -j (docs/PARALLELISM.md). Telemetry (wall time, domain
       breakdown) prints separately below. *)
    Format.printf "%-6s %-8s %4s %9s %10s %6s %9s@." "app" "mapping" "PEs"
      "events" "sim-time" "late" "leftover";
    let bad = ref 0 in
    List.iter
      (fun (o : Sweep.outcome) ->
        let r = o.Sweep.o_result in
        if r.Sim.timed_out then incr bad;
        Format.printf "%-6s %-8s %4d %9d %9.3fs %6d %9d%s@."
          o.Sweep.o_label
          (match o.Sweep.o_policy with
          | Plan.Greedy -> "greedy"
          | Plan.One_to_one -> "1:1")
          (Array.length r.Sim.procs)
          r.Sim.events_processed r.Sim.duration_s r.Sim.late_emissions
          r.Sim.leftover_items
          (if r.Sim.timed_out then "  TIMED OUT" else ""))
      outcomes;
    let events =
      List.fold_left
        (fun acc (o : Sweep.outcome) ->
          acc + o.Sweep.o_result.Sim.events_processed)
        0 outcomes
    in
    Format.printf "swept %d jobs on %d domain%s in %.1f ms (%.0f events/s)@."
      (List.length outcomes) (Sweep.domains pool)
      (if Sweep.domains pool = 1 then "" else "s")
      (wall_s *. 1e3)
      (if wall_s > 0. then float_of_int events /. wall_s else 0.);
    let reports = Sweep.report pool in
    List.iter
      (fun (d : Sweep.domain_report) ->
        let p = d.Sweep.d_pool in
        let acquires = p.Bp_image.Pool.hits + p.Bp_image.Pool.misses in
        Format.printf
          "  domain %d: %d tasks, %.1f ms, %d steals, pool hit rate %.1f%%@."
          d.Sweep.d_domain d.Sweep.d_tasks
          (d.Sweep.d_wall_s *. 1e3)
          d.Sweep.d_steals
          (if acquires = 0 then 0.
           else
             100.
             *. float_of_int p.Bp_image.Pool.hits
             /. float_of_int acquires))
      reports;
    (match metrics with
    | Some path ->
      let reg = Bp_obs.Metrics.create () in
      List.iter
        (fun (d : Sweep.domain_report) ->
          Bp_obs.Metrics.record_domain reg ~domain:d.Sweep.d_domain
            ~tasks:d.Sweep.d_tasks ~wall_s:d.Sweep.d_wall_s
            ~steals:d.Sweep.d_steals ())
        reports;
      Bp_obs.Metrics.incr reg ~by:(List.length outcomes) "sim.sweep.tasks";
      Bp_obs.Metrics.incr reg ~by:events "sim.sweep.events";
      Bp_obs.Metrics.set reg "sim.sweep.wall_s" wall_s;
      Bp_obs.Metrics.set reg "sim.sweep.domains"
        (float_of_int (Sweep.domains pool));
      Bp_obs.Json.write_file ~path (Bp_obs.Metrics.to_json reg);
      Format.printf "wrote %s@." path
    | None -> ());
    if !bad > 0 then 1 else 0
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compile and simulate every selected suite entry under both \
         mappings (1:1 and greedy), sharded across $(b,-j) worker \
         domains — each worker owns its own chunk pool, and results \
         merge back in submission order, so the table is bit-identical \
         for every $(b,-j) (the contract is docs/PARALLELISM.md). Each \
         run elides provably-declining wakes; $(b,--no-elide) turns \
         elision off with a bit-identical table (docs/PERFORMANCE.md). \
         $(b,--metrics) FILE exports the per-domain \
         sim.domain.<i>.{tasks,wall_s,steal_count} telemetry as JSON.";
    ]
  in
  Cmd.v
    (Cmd.info "sweep" ~man
       ~doc:
         "Simulate the benchmark suite across worker domains (bit-exact \
          for every -j and for --no-elide)")
    Term.(const run $ labels_arg $ jobs_arg $ metrics_arg $ no_elide_arg)

let run_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A .bp program (see examples/programs).")
  in
  let run file machine policy greedy dot =
    handle_errors @@ fun () ->
    let program = Bp_lang.Lang.parse_file file in
    let machine = Bp_machine.Machine.by_name machine in
    let compiled =
      Pipeline.compile ~align_policy:(policy_of policy) ~machine
        program.Bp_lang.Lang.graph
    in
    Format.printf "%a" Pipeline.pp_summary compiled;
    (match dot with
    | Some path ->
      Bp_viz.Dot.write_file ~path
        (Bp_viz.Dot.to_dot ~title:file compiled.Pipeline.graph);
      Format.printf "wrote %s@." path
    | None -> ());
    let result =
      Plan.run_plan ~policy:(policy_of_greedy greedy) compiled ()
    in
    Format.printf "%a@." Sim.pp_result result;
    List.iter
      (fun (name, collector) ->
        Format.printf "  output %s: %d chunks in %d frames@." name
          (List.length (Bp_kernels.Sink.chunks collector))
          (List.length (Bp_kernels.Sink.chunks_between_frames collector)))
      program.Bp_lang.Lang.outputs;
    match program.Bp_lang.Lang.rate with
    | Some rate ->
      let strict =
        Sim.real_time_verdict result
          ~expected_frames:program.Bp_lang.Lang.n_frames
          ~period_s:(Rate.frame_period_s rate) ()
      in
      (* Delay lines legitimately hold state at quiescence; report that
         case distinctly from a genuine miss. *)
      let lenient =
        Sim.real_time_verdict result
          ~expected_frames:program.Bp_lang.Lang.n_frames
          ~period_s:(Rate.frame_period_s rate)
          ~allowed_leftover:result.Sim.leftover_items ()
      in
      let status =
        if strict.Sim.met then "met"
        else if lenient.Sim.met then
          Printf.sprintf "met (%d items remain queued in delay lines)"
            result.Sim.leftover_items
        else "MISSED"
      in
      Format.printf "real-time: %s (%d frames, worst interval %.3fms)@."
        status strict.Sim.frames_delivered
        (1000. *. strict.Sim.worst_frame_interval_s)
    | None -> ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and simulate a .bp program file")
    Term.(
      const run $ file_arg $ machine_arg $ policy_arg $ greedy_arg $ dot_arg)

let rate_search_cmd =
  let pes_arg =
    Arg.(
      value & opt int 8
      & info [ "pes" ] ~docv:"N" ~doc:"Processor budget to fill.")
  in
  let run app width height frames machine policy pes greedy jobs =
    handle_errors @@ fun () ->
    let frame = Size.v width height in
    let machine = Bp_machine.Machine.by_name machine in
    let build ~rate_hz =
      (build_app app ~frame ~rate:(Rate.hz rate_hz) ~n_frames:frames)
        .App.graph
    in
    let r =
      Bp_compiler.Sweep.with_pool ~domains:jobs @@ fun pool ->
      Bp_compiler.Rate_search.search ~pool ~align_policy:(policy_of policy)
        ~machine ~max_pes:pes ~greedy build
    in
    List.iter
      (fun (p : Bp_compiler.Rate_search.probe) ->
        Format.printf "  probe %8.2f Hz -> %s@." p.Bp_compiler.Rate_search.rate_hz
          (if p.Bp_compiler.Rate_search.fits then
             Printf.sprintf "fits (%d PEs)" p.Bp_compiler.Rate_search.pes
           else "does not fit"))
      r.Bp_compiler.Rate_search.probes;
    if r.Bp_compiler.Rate_search.best_rate_hz > 0. then
      Format.printf
        "highest sustainable rate on %d PEs: %.2f Hz (%d PEs used)@." pes
        r.Bp_compiler.Rate_search.best_rate_hz r.Bp_compiler.Rate_search.best_pes
    else Format.printf "no feasible rate on %d PEs@." pes
  in
  Cmd.v
    (Cmd.info "rate-search"
       ~doc:
         "Find the highest sustainable input rate for a processor budget \
          (the StreamIt-style inverse query); -j N shards the probe \
          compilations with identical recorded probes")
    Term.(
      const run $ app_arg $ width_arg $ height_arg $ frames_arg $ machine_arg
      $ policy_arg $ pes_arg $ greedy_arg $ jobs_arg)

let report_cmd =
  let figs =
    [
      ("fig2", fun ppf -> ignore (Bp_report.Report.fig2 ppf));
      ("fig3", fun ppf -> ignore (Bp_report.Report.fig3 ppf));
      ("fig4", fun ppf -> ignore (Bp_report.Report.fig4 ppf));
      ("fig5", fun ppf -> ignore (Bp_report.Report.fig5 ppf));
      ("fig8", fun ppf -> ignore (Bp_report.Report.fig8 ppf));
      ("fig9", fun ppf -> ignore (Bp_report.Report.fig9 ppf));
      ("fig10", fun ppf -> ignore (Bp_report.Report.fig10 ppf));
      ("fig11", fun ppf -> ignore (Bp_report.Report.fig11 ppf));
      ("fig12", fun ppf -> ignore (Bp_report.Report.fig12 ppf));
      ("fig13", fun ppf -> ignore (Bp_report.Report.fig13 ppf));
      ("util", fun ppf -> ignore (Bp_report.Report.utilization_table ppf));
      ("placement", fun ppf -> ignore (Bp_report.Report.placement_ablation ppf));
      ("energy", fun ppf -> ignore (Bp_report.Report.energy_ablation ppf));
      ("machines", fun ppf -> ignore (Bp_report.Report.machine_ablation ppf));
    ]
  in
  let which =
    Arg.(
      value & pos_all string [ "all" ]
      & info [] ~docv:"FIG"
          ~doc:
            "Figures to reproduce (fig2..fig13, util, placement, energy, \
             machines, or all) — or $(b,bottleneck APP) for the real-time \
             bottleneck report of one application.")
  in
  let dot_dir =
    Arg.(
      value & opt (some string) None
      & info [ "dot-dir" ] ~docv:"DIR"
          ~doc:"Also write Graphviz renderings of the figure graphs here.")
  in
  (* [bpc report bottleneck APP]: simulate with health instrumentation and
     print the ranked stall report (docs/TUTORIAL.md §"Finding the
     bottleneck"). *)
  let bottleneck_report app width height rate frames machine policy greedy =
    let _inst, compiled =
      compile_common app width height rate frames machine policy
    in
    let hlt = Bp_obs.Health.create ~graph:compiled.Pipeline.graph () in
    let result =
      Plan.run_plan
        ~state_observer:(Bp_obs.Health.state_observer hlt)
        ~policy:(policy_of_greedy greedy) compiled ()
    in
    Bp_obs.Health.finalize hlt ~result ();
    Format.printf "%s (%s mapping)@." app
      (if greedy then "greedy" else "1:1");
    Format.printf "%a" Bp_obs.Health.pp_bottleneck hlt
  in
  let run which dot_dir width height rate frames machine policy greedy =
    handle_errors @@ fun () ->
    match which with
    | "bottleneck" :: rest -> (
      match rest with
      | [ app ] ->
        bottleneck_report app width height rate frames machine policy greedy
      | _ ->
        Bp_util.Err.unsupportedf
          "report bottleneck: expected exactly one APP (see bpc list)")
    | _ ->
      let ppf = Format.std_formatter in
      List.iter
        (fun w ->
          if w = "all" then Bp_report.Report.all ppf
          else
            match List.assoc_opt w figs with
            | Some f -> f ppf
            | None -> Bp_util.Err.unsupportedf "unknown figure %S" w)
        which;
      (match dot_dir with
      | Some dir -> ignore (Bp_report.Report.export_dots ~dir ppf)
      | None -> ())
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Reproduce the paper's figures and tables, or print a bottleneck \
          report")
    Term.(
      const run $ which $ dot_dir $ width_arg $ height_arg $ rate_arg
      $ frames_arg $ machine_arg $ policy_arg $ greedy_arg)

let () =
  let doc = "block-parallel compiler, simulator and experiment driver" in
  let info = Cmd.info "bpc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd;
            compile_cmd;
            simulate_cmd;
            sweep_cmd;
            run_cmd;
            rate_search_cmd;
            report_cmd;
          ]))
