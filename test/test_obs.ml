(* Tests for the observability layer (lib/obs): the metrics registry, the
   instrumentation contract of docs/OBSERVABILITY.md, Chrome-trace export
   (valid JSON, monotone timestamps, one track per PE, counter tracks),
   compile-pass timings, and — crucially — that observers are passive: a
   run's result is identical with and without them. *)

open Block_parallel

(* ---- a tiny validating JSON reader ------------------------------------ *)
(* The repo deliberately has no JSON dependency; this reader exists so the
   tests can assert "python -m json.tool would accept this" in-process. *)

type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JList of json list
  | JObj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let bad msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos >= n then bad "eof" else s.[!pos] in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if peek () <> c then bad (Printf.sprintf "expected %c" c);
    incr pos
  in
  let lit l v =
    if !pos + String.length l <= n && String.sub s !pos (String.length l) = l
    then begin
      pos := !pos + String.length l;
      v
    end
    else bad ("expected " ^ l)
  in
  let parse_string () =
    expect '"';
    let buf = Stdlib.Buffer.create 16 in
    let rec go () =
      if !pos >= n then bad "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        (match peek () with
        | '"' -> Stdlib.Buffer.add_char buf '"'
        | '\\' -> Stdlib.Buffer.add_char buf '\\'
        | '/' -> Stdlib.Buffer.add_char buf '/'
        | 'b' -> Stdlib.Buffer.add_char buf '\b'
        | 'f' -> Stdlib.Buffer.add_char buf '\012'
        | 'n' -> Stdlib.Buffer.add_char buf '\n'
        | 'r' -> Stdlib.Buffer.add_char buf '\r'
        | 't' -> Stdlib.Buffer.add_char buf '\t'
        | 'u' ->
          if !pos + 4 >= n then bad "bad \\u escape";
          let code =
            try int_of_string ("0x" ^ String.sub s (!pos + 1) 4)
            with _ -> bad "bad \\u escape"
          in
          pos := !pos + 4;
          (* Our writer only \u-escapes control characters, so a one-byte
             decode is enough for the round-trip check. *)
          if code < 0x80 then Stdlib.Buffer.add_char buf (Char.chr code)
          else Stdlib.Buffer.add_char buf '?'
        | _ -> bad "bad escape");
        incr pos;
        go ()
      | c when Char.code c < 0x20 -> bad "raw control char in string"
      | c ->
        Stdlib.Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ();
    Stdlib.Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some f -> JNum f
    | None -> bad ("bad number " ^ tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then begin
        incr pos;
        JObj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            fields ((k, v) :: acc)
          | '}' ->
            incr pos;
            List.rev ((k, v) :: acc)
          | _ -> bad "expected , or }"
        in
        JObj (fields [])
      end
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then begin
        incr pos;
        JList []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            List.rev (v :: acc)
          | _ -> bad "expected , or ]"
        in
        JList (items [])
      end
    | '"' -> JStr (parse_string ())
    | 't' -> lit "true" (JBool true)
    | 'f' -> lit "false" (JBool false)
    | 'n' -> lit "null" JNull
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then bad "trailing garbage";
  v

let field name = function
  | JObj fields -> List.assoc_opt name fields
  | _ -> None

(* ---- fixtures ---------------------------------------------------------- *)

(* Source -> Forward -> Sink on a 4x3 frame: every count below is
   hand-computable. One frame is 12 pixels + 3 end-of-line + 1 end-of-frame
   = 16 items; the forward kernel fires once per item (12 data fires + 4
   token forwards). *)
let tiny () =
  let frame = Size.v 4 3 in
  let frames = Image.Gen.frame_sequence ~seed:7 frame 1 in
  let g = Graph.create () in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate = Rate.hz 50. })
      (Source.spec ~frame ~frames ())
  in
  let fwd = Graph.add g (Arith.forward ()) in
  let collector = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel collector ()) in
  Graph.connect g ~from:(src, "out") ~into:(fwd, "in");
  Graph.connect g ~from:(fwd, "out") ~into:(sink, "in");
  (g, fwd)

let instrumented_run ?sample_limit g =
  let obs = Instrument.create ?sample_limit ~graph:g () in
  let trace, trace_observer = Trace.recorder () in
  let observer =
    Instrument.compose [ trace_observer; Instrument.observer obs ]
  in
  let result =
    Sim.run ~observer
      ~channel_observer:(Instrument.channel_observer obs)
      ~graph:g ~mapping:(Mapping.one_to_one g) ~machine:Machine.default ()
  in
  Instrument.finalize obs ~result;
  (obs, trace, result)

(* Run with the full health instrumentation attached and finalized. *)
let health_run ?(greedy = false) g ~machine =
  let h = Health.create ~graph:g () in
  let mapping =
    if greedy then
      Mapping.of_groups g
        (Multiplex.greedy machine g)
    else Mapping.one_to_one g
  in
  let result =
    Sim.run ~state_observer:(Health.state_observer h) ~graph:g ~mapping
      ~machine ()
  in
  Health.finalize h ~result ();
  (h, result)

let compiled_pipeline () =
  let inst =
    Apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 30.)
      ~n_frames:2 ()
  in
  Pipeline.compile ~machine:Machine.default inst.App.graph

(* ---- metrics registry -------------------------------------------------- *)

let test_metrics_basics () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.incr m ~by:4 "c";
  Alcotest.(check int) "counter" 5 (Metrics.counter m "c");
  Alcotest.(check int) "absent counter" 0 (Metrics.counter m "nope");
  Metrics.set m "g" 2.5;
  Metrics.set_max m "g" 1.0;
  Alcotest.(check (float 0.)) "set_max keeps high water" 2.5
    (Option.get (Metrics.gauge m "g"));
  Metrics.set_max m "g" 7.0;
  Alcotest.(check (float 0.)) "set_max raises" 7.0
    (Option.get (Metrics.gauge m "g"));
  Metrics.add m "acc" 1.5;
  Metrics.add m "acc" 1.5;
  Alcotest.(check (float 1e-12)) "add accumulates" 3.0
    (Option.get (Metrics.gauge m "acc"));
  Metrics.observe m "h" 1e-6;
  Metrics.observe m "h" 3e-6;
  let h = Option.get (Metrics.histogram m "h") in
  Alcotest.(check int) "hist count" 2 h.Metrics.h_count;
  Alcotest.(check (float 1e-18)) "hist sum" 4e-6 h.Metrics.h_sum;
  Alcotest.(check (float 1e-18)) "hist min" 1e-6 h.Metrics.h_min;
  Alcotest.(check (float 1e-18)) "hist max" 3e-6 h.Metrics.h_max;
  Alcotest.(check (float 1e-18)) "hist mean" 2e-6 h.Metrics.h_mean

let test_metrics_kind_clash () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  Alcotest.check_raises "counter used as gauge"
    (Invalid_argument "Metrics: x is a counter, used as a gauge") (fun () ->
      Metrics.set m "x" 1.)

let test_metrics_json_valid () =
  let m = Metrics.create () in
  Metrics.incr m "weird \"name\"\n";
  Metrics.observe m "h" 0.5;
  Metrics.set m "g" 0.25;
  match parse_json (Obs_json.to_string (Metrics.to_json m)) with
  | JObj [ ("metrics", JList entries) ] ->
    Alcotest.(check int) "three entries" 3 (List.length entries);
    List.iter
      (fun e ->
        match (field "name" e, field "kind" e) with
        | Some (JStr _), Some (JStr k) ->
          Alcotest.(check bool) "known kind" true
            (List.mem k [ "counter"; "gauge"; "histogram" ])
        | _ -> Alcotest.fail "entry missing name/kind")
      entries
  | _ -> Alcotest.fail "unexpected metrics JSON shape"

(* ---- the instrumentation contract on a hand-computed graph ------------- *)

let test_tiny_counts () =
  let g, fwd = tiny () in
  let obs, _, result = instrumented_run g in
  let m = Instrument.metrics obs in
  let fwd_name = (Graph.node g fwd).Graph.name in
  (* 12 pixels + 3 EOL + 1 EOF, one fire per item. *)
  Alcotest.(check int) "forward fires" 16
    (Metrics.counter m (Printf.sprintf "kernel.%s.fires" fwd_name));
  let svc =
    Option.get
      (Metrics.histogram m (Printf.sprintf "kernel.%s.service_s" fwd_name))
  in
  Alcotest.(check int) "one service sample per fire" 16 svc.Metrics.h_count;
  (* Both channels carry the same 16 items end to end. *)
  List.iter
    (fun (c : Graph.channel) ->
      let id = c.Graph.chan_id in
      Alcotest.(check int)
        (Printf.sprintf "chan %d pushes" id)
        16
        (Metrics.counter m (Printf.sprintf "chan.%d.pushes" id));
      Alcotest.(check int)
        (Printf.sprintf "chan %d pops" id)
        16
        (Metrics.counter m (Printf.sprintf "chan.%d.pops" id)))
    (Graph.channels g);
  (* Cross-check against the simulator's own accounting. *)
  List.iter
    (fun (id, (ns : Sim.node_stats)) ->
      let name = (Graph.node g id).Graph.name in
      if Mapping.is_on_chip (Graph.node g id) then
        Alcotest.(check int)
          (Printf.sprintf "%s fires agree" name)
          ns.Sim.node_fires
          (Metrics.counter m (Printf.sprintf "kernel.%s.fires" name)))
    result.Sim.node_stats;
  (* PE accounting: one on-chip kernel on PE 0. *)
  Alcotest.(check int) "pe fires" 16 (Metrics.counter m "pe.0.fires");
  let busy = Option.get (Metrics.gauge m "pe.0.busy_s") in
  let idle = Option.get (Metrics.gauge m "pe.0.idle_s") in
  Alcotest.(check (float 1e-9)) "busy+idle = duration"
    result.Sim.duration_s (busy +. idle);
  Alcotest.(check (float 1e-9)) "util = busy/duration"
    (busy /. result.Sim.duration_s)
    (Option.get (Metrics.gauge m "pe.0.util"));
  Alcotest.(check (float 0.)) "no stalls" 0.
    (float_of_int (Metrics.counter m "sim.input_stalls"));
  Alcotest.(check (float 0.)) "nothing leftover" 0.
    (float_of_int (Metrics.counter m "sim.leftover_items"))

let test_tiny_series_monotone () =
  let g, _ = tiny () in
  let obs, _, _ = instrumented_run g in
  let series = Instrument.channel_series obs in
  Alcotest.(check int) "two channels" 2 (List.length series);
  List.iter
    (fun (id, samples) ->
      Alcotest.(check bool)
        (Printf.sprintf "chan %d has samples" id)
        true (samples <> []);
      (* 16 pushes + 16 pops. *)
      Alcotest.(check int)
        (Printf.sprintf "chan %d sample count" id)
        32 (List.length samples);
      let rec monotone = function
        | (t0, _) :: ((t1, _) :: _ as rest) ->
          t0 <= t1 +. 1e-15 && monotone rest
        | _ -> true
      in
      Alcotest.(check bool)
        (Printf.sprintf "chan %d series monotone" id)
        true (monotone samples);
      List.iter
        (fun (_, depth) ->
          Alcotest.(check bool) "depth in range" true (depth >= 0))
        samples)
    series

let test_sample_limit () =
  let g, _ = tiny () in
  let obs, _, _ = instrumented_run ~sample_limit:5 g in
  List.iter
    (fun (id, samples) ->
      Alcotest.(check int)
        (Printf.sprintf "chan %d capped" id)
        5 (List.length samples);
      Alcotest.(check int)
        (Printf.sprintf "chan %d drop count" id)
        27
        (Metrics.counter (Instrument.metrics obs)
           (Printf.sprintf "chan.%d.samples_dropped" id)))
    (Instrument.channel_series obs)

(* ---- observers are passive --------------------------------------------- *)

let test_differential_observer_free () =
  let compiled = compiled_pipeline () in
  let g = compiled.Pipeline.graph in
  let machine = compiled.Pipeline.machine in
  let run_with_obs () =
    let mapping = Plan.mapping compiled ~policy:Plan.Greedy in
    let obs = Instrument.create ~graph:g () in
    let h = Health.create ~graph:g () in
    let result =
      Sim.run
        ~observer:(Instrument.observer obs)
        ~channel_observer:(Instrument.channel_observer obs)
        ~state_observer:(Health.state_observer h)
        ~graph:g ~mapping ~machine ()
    in
    Instrument.finalize obs ~result;
    Health.finalize h ~result ();
    result
  in
  let run_bare () =
    let mapping = Plan.mapping compiled ~policy:Plan.Greedy in
    Sim.run ~graph:g ~mapping ~machine ()
  in
  let a = run_with_obs () and b = run_bare () in
  Alcotest.(check (float 0.)) "duration identical" b.Sim.duration_s
    a.Sim.duration_s;
  Alcotest.(check int) "stalls identical" b.Sim.input_stalls a.Sim.input_stalls;
  Alcotest.(check int) "late identical" b.Sim.late_emissions a.Sim.late_emissions;
  Alcotest.(check int) "leftover identical" b.Sim.leftover_items
    a.Sim.leftover_items;
  Alcotest.(check int) "PE count identical" (Array.length b.Sim.procs)
    (Array.length a.Sim.procs);
  Array.iteri
    (fun i (pb : Sim.proc_stats) ->
      let pa = a.Sim.procs.(i) in
      Alcotest.(check int) "fires identical" pb.Sim.fires pa.Sim.fires;
      Alcotest.(check (float 0.)) "run_s identical" pb.Sim.run_s pa.Sim.run_s;
      Alcotest.(check (float 0.)) "read_s identical" pb.Sim.read_s pa.Sim.read_s;
      Alcotest.(check (float 0.)) "write_s identical" pb.Sim.write_s
        pa.Sim.write_s)
    b.Sim.procs;
  Alcotest.(check bool) "depths identical" true
    (List.sort compare a.Sim.channel_depths
    = List.sort compare b.Sim.channel_depths);
  Alcotest.(check bool) "node stats identical" true
    (List.sort compare a.Sim.node_stats = List.sort compare b.Sim.node_stats)

(* ---- Chrome trace export ----------------------------------------------- *)

let test_chrome_trace_schema () =
  let compiled = compiled_pipeline () in
  let g = compiled.Pipeline.graph in
  let obs = Instrument.create ~graph:g () in
  let h = Health.create ~graph:g () in
  let trace, trace_observer = Trace.recorder () in
  let observer =
    Instrument.compose [ trace_observer; Instrument.observer obs ]
  in
  let result =
    Sim.run ~observer
      ~channel_observer:(Instrument.channel_observer obs)
      ~state_observer:(Health.state_observer h)
      ~graph:g
      ~mapping:(Plan.mapping compiled ~policy:Plan.Greedy)
      ~machine:compiled.Pipeline.machine ()
  in
  Instrument.finalize obs ~result;
  Health.finalize h ~result ();
  let doc =
    Chrome_trace.of_run ~compile_passes:compiled.Pipeline.timings
      ~instrument:obs ~health:h ~graph:g ~trace ()
  in
  let parsed = parse_json (Obs_json.to_string doc) in
  let events =
    match field "traceEvents" parsed with
    | Some (JList evs) -> evs
    | _ -> Alcotest.fail "no traceEvents list"
  in
  Alcotest.(check bool) "has events" true (events <> []);
  (* Timestamps must be monotone over the whole file. *)
  let ts_values =
    List.filter_map
      (fun e -> match field "ts" e with Some (JNum f) -> Some f | _ -> None)
      events
  in
  Alcotest.(check int) "every event has a ts" (List.length events)
    (List.length ts_values);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone timestamps" true (monotone ts_values);
  (* One named thread (track) per PE of the run, plus one stall track per
     PE the health layer observed. *)
  let thread_names =
    List.filter
      (fun e ->
        field "name" e = Some (JStr "thread_name")
        && field "ph" e = Some (JStr "M")
        && field "pid" e = Some (JNum 0.))
      events
  in
  Alcotest.(check int) "one thread_name per PE track (firings + stalls)"
    (2 * Array.length result.Sim.procs)
    (List.length thread_names);
  (* Firing slices land on PE tracks; at least one counter track exists. *)
  let xs =
    List.filter
      (fun e ->
        field "ph" e = Some (JStr "X")
        && field "pid" e = Some (JNum 0.)
        && field "cat" e = Some (JStr "firing"))
      events
  in
  Alcotest.(check bool) "has firing slices" true (xs <> []);
  List.iter
    (fun e ->
      match field "tid" e with
      | Some (JNum tid) ->
        Alcotest.(check bool) "tid is a PE" true
          (tid >= 0. && tid < float_of_int (Array.length result.Sim.procs))
      | _ -> Alcotest.fail "X event without tid")
    xs;
  (* Stall spans land on the 1000+p stall tracks with a culprit kernel. *)
  let stalls =
    List.filter (fun e -> field "cat" e = Some (JStr "stall")) events
  in
  Alcotest.(check bool) "has stall spans" true (stalls <> []);
  List.iter
    (fun e ->
      (match field "tid" e with
      | Some (JNum tid) ->
        Alcotest.(check bool) "stall tid on a stall track" true
          (tid >= 1000.
          && tid < 1000. +. float_of_int (Array.length result.Sim.procs))
      | _ -> Alcotest.fail "stall event without tid");
      match field "args" e with
      | Some (JObj args) ->
        Alcotest.(check bool) "stall names its kernel" true
          (List.mem_assoc "kernel" args)
      | _ -> Alcotest.fail "stall event without args")
    stalls;
  (* Every frame appears as an async begin/end pair. *)
  let frames_b =
    List.filter
      (fun e ->
        field "cat" e = Some (JStr "frame") && field "ph" e = Some (JStr "b"))
      events
  and frames_e =
    List.filter
      (fun e ->
        field "cat" e = Some (JStr "frame") && field "ph" e = Some (JStr "e"))
      events
  in
  let n_frames =
    List.fold_left (fun acc (_, fs) -> acc + List.length fs) 0 (Health.frames h)
  in
  Alcotest.(check bool) "frames were recorded" true (n_frames > 0);
  Alcotest.(check int) "one async begin per frame" n_frames
    (List.length frames_b);
  Alcotest.(check int) "one async end per frame" n_frames
    (List.length frames_e);
  let counters = List.filter (fun e -> field "ph" e = Some (JStr "C")) events in
  Alcotest.(check bool) "has counter events" true (counters <> []);
  (* Compile passes ride along on their own process. *)
  let passes =
    List.filter
      (fun e ->
        field "ph" e = Some (JStr "X") && field "pid" e = Some (JNum 1.))
      events
  in
  Alcotest.(check int) "one slice per compile pass"
    (List.length compiled.Pipeline.timings)
    (List.length passes)

let test_json_escaping_roundtrip () =
  let s = "a\"b\\c\nd\te\r\x01f" in
  match parse_json (Obs_json.to_string (Obs_json.Str s)) with
  | JStr back -> Alcotest.(check string) "string round-trips" s back
  | _ -> Alcotest.fail "expected string"

(* ---- compile pass timings ---------------------------------------------- *)

let test_pass_timings () =
  let compiled = compiled_pipeline () in
  let names = List.map (fun p -> p.Pipeline.pass) compiled.Pipeline.timings in
  Alcotest.(check (list string)) "passes in order"
    [
      "validate"; "analyze-pre"; "align"; "buffering"; "parallelize";
      "analyze-post"; "schedulability"; "map";
    ]
    names;
  List.iter
    (fun (p : Pipeline.pass_timing) ->
      Alcotest.(check bool) "wall time non-negative" true (p.Pipeline.wall_s >= 0.);
      Alcotest.(check bool) "node counts sane" true
        (p.Pipeline.nodes_after >= p.Pipeline.nodes_before))
    compiled.Pipeline.timings;
  let par =
    List.find (fun p -> p.Pipeline.pass = "parallelize") compiled.Pipeline.timings
  in
  Alcotest.(check bool) "parallelize grows the graph" true
    (par.Pipeline.nodes_after > par.Pipeline.nodes_before)

(* ---- metrics determinism ----------------------------------------------- *)

let test_metrics_sorted_deterministic () =
  let build order =
    let m = Metrics.create () in
    List.iter
      (fun n ->
        Metrics.incr m ("c." ^ n);
        Metrics.set m ("g." ^ n) 1.5;
        Metrics.observe m ("h." ^ n) 1e-3)
      order;
    m
  in
  let a = build [ "beta"; "alpha"; "gamma" ]
  and b = build [ "gamma"; "beta"; "alpha" ] in
  Alcotest.(check (list string))
    "names sorted regardless of registration order" (Metrics.names a)
    (Metrics.names b);
  Alcotest.(check bool) "names are sorted" true
    (let ns = Metrics.names a in
     List.sort compare ns = ns);
  Alcotest.(check string) "snapshots byte-identical"
    (Obs_json.to_string (Metrics.to_json a))
    (Obs_json.to_string (Metrics.to_json b));
  let pp m = Format.asprintf "%a" Metrics.pp m in
  Alcotest.(check string) "pp byte-identical" (pp a) (pp b)

(* ---- Trace.recorder and first_output_latency_s -------------------------- *)

let test_trace_recorder_and_latency () =
  let g, fwd = tiny () in
  let _, trace, result = instrumented_run g in
  let fwd_name = (Graph.node g fwd).Graph.name in
  (* First-output latency is the earliest first-data arrival across sinks. *)
  let fol = Option.get (Sim.first_output_latency_s result) in
  let expected =
    List.fold_left
      (fun acc (_, t) -> Float.min acc t)
      infinity result.Sim.sink_first_data
  in
  Alcotest.(check (float 0.)) "first-output latency = earliest sink data"
    expected fol;
  Alcotest.(check bool) "latency non-negative" true (fol >= 0.);
  (* The recorder saw exactly the forward kernel's 16 firings, in order. *)
  let firings = Trace.firings trace in
  Alcotest.(check int) "one firing per item" 16 (List.length firings);
  List.iter
    (fun (f : Trace.firing) ->
      Alcotest.(check string) "only the forward kernel fires" fwd_name
        f.Trace.kernel;
      Alcotest.(check bool) "service positive" true (f.Trace.service_s > 0.))
    firings;
  let rec monotone = function
    | (a : Trace.firing) :: (b :: _ as rest) ->
      a.Trace.at_s <= b.Trace.at_s && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "firings in time order" true (monotone firings);
  Alcotest.(check bool) "all firings on PE 0" true
    (List.for_all (fun (f : Trace.firing) -> f.Trace.proc = 0) firings);
  let gantt = Trace.gantt trace in
  Alcotest.(check bool) "gantt shows busy slices" true
    (String.contains gantt '#')

(* ---- real-time health --------------------------------------------------- *)

(* The partition invariant: every on-chip kernel's state intervals tile
   [0, duration] exactly — contiguous, non-negative, starting at 0 and
   ending at the duration — and the busy total agrees with the
   simulator's own per-node accounting. *)
let check_partition tag g (h : Health.t) (result : Sim.result) =
  let tracks = Health.intervals h in
  Alcotest.(check bool) (tag ^ ": has kernel tracks") true (tracks <> []);
  List.iter
    (fun ((node : Graph.node), _proc, ivs) ->
      (match ivs with
      | [] -> Alcotest.fail (tag ^ ": kernel without intervals")
      | first :: _ ->
        Alcotest.(check (float 0.))
          (tag ^ ": first interval starts at 0")
          0. first.Health.iv_start);
      let rec contiguous = function
        | (a : Health.interval) :: (b :: _ as rest) ->
          Alcotest.(check (float 0.))
            (tag ^ ": intervals contiguous")
            a.Health.iv_end b.Health.iv_start;
          contiguous rest
        | [ (last : Health.interval) ] ->
          Alcotest.(check (float 0.))
            (tag ^ ": last interval ends at duration")
            result.Sim.duration_s last.Health.iv_end
        | [] -> ()
      in
      contiguous ivs;
      List.iter
        (fun (iv : Health.interval) ->
          Alcotest.(check bool)
            (tag ^ ": interval non-negative")
            true
            (iv.Health.iv_end >= iv.Health.iv_start))
        ivs;
      let bd = Option.get (Health.breakdown h node.Graph.id) in
      Alcotest.(check (float 1e-9))
        (tag ^ ": breakdown partitions the run")
        result.Sim.duration_s
        (bd.Health.busy_s +. bd.Health.blocked_input_s
        +. bd.Health.blocked_output_s +. bd.Health.idle_s);
      let ns = List.assoc node.Graph.id result.Sim.node_stats in
      Alcotest.(check (float 1e-9))
        (tag ^ ": busy agrees with node_stats")
        ns.Sim.node_busy_s bd.Health.busy_s)
    tracks;
  ignore g

let test_health_partition_suite () =
  List.iter
    (fun label ->
      List.iter
        (fun greedy ->
          let tag =
            Printf.sprintf "%s/%s" label (if greedy then "greedy" else "1:1")
          in
          let e = Apps.Suite.by_label label in
          let inst = e.Apps.Suite.build () in
          let compiled =
            Pipeline.compile ~machine:e.Apps.Suite.machine inst.App.graph
          in
          let g = compiled.Pipeline.graph in
          let h, result = health_run ~greedy g ~machine:e.Apps.Suite.machine in
          check_partition tag g h result)
        [ false; true ])
    Apps.Suite.labels

(* A graph whose bottleneck is analytically known: the Heavy kernel's
   service time (3000 cycles = 3 ms at 1 MHz) is ~10x the element period
   (8x8 @ 50 Hz = 312.5 us/pixel), so Heavy saturates, the
   Forward->Heavy channel fills, and Forward spends the run
   blocked-on-output against it. *)
let heavy_cycles = 3000

let bottleneck_fixture () =
  let frame = Size.v 8 8 in
  let frames = Image.Gen.frame_sequence ~seed:11 frame 2 in
  let heavy =
    let methods =
      [
        Method_spec.on_data ~cycles:heavy_cycles ~name:"run"
          ~inputs:[ "in" ] ~outputs:[ "out" ] ();
      ]
    in
    let run _m ~alloc:_ ~inputs ~outputs = outputs.(0) <- inputs.(0) in
    Kernel.v ~class_name:"Heavy"
      ~inputs:[ Port.input "in" Window.pixel ]
      ~outputs:[ Port.output "out" Window.pixel ]
      ~methods
      ~make_behaviour:(fun () -> Behaviour.iteration_kernel ~methods ~run ())
      ()
  in
  let g = Graph.create () in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate = Rate.hz 50. })
      (Source.spec ~frame ~frames ())
  in
  let fwd = Graph.add g (Arith.forward ()) in
  let hv = Graph.add g heavy in
  let collector = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel collector ()) in
  Graph.connect g ~from:(src, "out") ~into:(fwd, "in");
  Graph.connect g ~from:(fwd, "out") ~into:(hv, "in");
  Graph.connect g ~from:(hv, "out") ~into:(sink, "in");
  (g, fwd, hv, sink)

let test_bottleneck_known_answer () =
  let g, fwd, hv, _sink = bottleneck_fixture () in
  let h, result = health_run g ~machine:Machine.default in
  check_partition "heavy" g h result;
  let b = Option.get (Health.bottleneck h) in
  let fwd_name = (Graph.node g fwd).Graph.name in
  let hv_name = (Graph.node g hv).Graph.name in
  Alcotest.(check string) "most blocked kernel is Forward" fwd_name
    b.Health.b_kernel.Graph.name;
  Alcotest.(check bool) "blocked a dominant share of the run" true
    (b.Health.b_blocked_s > 0.5 *. result.Sim.duration_s);
  (* The binding channel is the Forward->Heavy edge; its other endpoint —
     the rate limiter the report should name — is Heavy. *)
  (match b.Health.b_chan with
  | Some c ->
    Alcotest.(check int) "binding channel leaves Forward" fwd
      c.Graph.src.Graph.node;
    Alcotest.(check int) "binding channel enters Heavy" hv
      c.Graph.dst.Graph.node
  | None -> Alcotest.fail "no binding channel attributed");
  Alcotest.(check string) "culprit is the Heavy kernel" hv_name
    (Option.get b.Health.b_culprit).Graph.name;
  (* Forward's blocked time is blocked-on-output, and Heavy saturates. *)
  let bd_fwd = Option.get (Health.breakdown h fwd) in
  Alcotest.(check bool) "Forward blocked on output, not input" true
    (bd_fwd.Health.blocked_output_s > bd_fwd.Health.blocked_input_s);
  let bd_hv = Option.get (Health.breakdown h hv) in
  Alcotest.(check bool) "Heavy is nearly saturated" true
    (bd_hv.Health.busy_s > 0.9 *. result.Sim.duration_s);
  (* The report prose names the culprit. *)
  let report = Format.asprintf "%a" Health.pp_bottleneck h in
  Alcotest.(check bool) "report names the rate limiter" true
    (let needle = "Likely rate limiter: " ^ hv_name in
     let nl = String.length needle and rl = String.length report in
     let rec scan i =
       i + nl <= rl && (String.sub report i nl = needle || scan (i + 1))
     in
     scan 0)

let test_health_frames_and_deadlines () =
  (* The overloaded fixture cannot keep up with 50 Hz: frame 1's
     end-of-frame arrives far past its deadline. *)
  let g, _, _, sink = bottleneck_fixture () in
  let h, result = health_run g ~machine:Machine.default in
  (* Frame births were tagged at the source, in frame order. *)
  (match result.Sim.source_frame_births with
  | [ (_, [ b0; b1 ]) ] ->
    Alcotest.(check (float 0.)) "frame 0 born at t=0" 0. b0;
    Alcotest.(check bool) "births in frame order" true (b1 > b0)
  | _ -> Alcotest.fail "expected one source with two frame births");
  (match Health.frames h with
  | [ (node, [ f0; f1 ]) ] ->
    Alcotest.(check int) "frames land on the sink" sink node.Graph.id;
    Alcotest.(check int) "frame indices" 0 f0.Health.f_index;
    Alcotest.(check int) "frame indices" 1 f1.Health.f_index;
    List.iter
      (fun (f : Health.frame) ->
        Alcotest.(check bool) "latency positive" true (f.Health.f_latency_s > 0.);
        Alcotest.(check (float 1e-12)) "latency = arrival - birth"
          (f.Health.f_arrival_s -. f.Health.f_birth_s)
          f.Health.f_latency_s)
      [ f0; f1 ];
    (* Deadlines anchor at the first arrival, so frame 0 holds and the
       late frame 1 misses. *)
    Alcotest.(check bool) "frame 0 meets its anchor deadline" false
      f0.Health.f_missed;
    Alcotest.(check bool) "frame 1 misses" true f1.Health.f_missed
  | _ -> Alcotest.fail "expected one sink with two frames");
  Alcotest.(check int) "one deadline miss total" 1 (Health.deadline_misses h);
  let m = Health.metrics h in
  Alcotest.(check int) "miss counter" 1 (Metrics.counter m "sim.deadline_misses");
  let name = (Graph.node g sink).Graph.name in
  Alcotest.(check int) "per-sink miss counter" 1
    (Metrics.counter m (Printf.sprintf "sink.%s.deadline_misses" name));
  let lat =
    Option.get
      (Metrics.histogram m (Printf.sprintf "sink.%s.frame_latency_s" name))
  in
  Alcotest.(check int) "one latency sample per frame" 2 lat.Metrics.h_count

let test_health_json_valid () =
  let compiled = compiled_pipeline () in
  let g = compiled.Pipeline.graph in
  let h, _ = health_run g ~machine:compiled.Pipeline.machine in
  let parsed = parse_json (Obs_json.to_string (Health.to_json h)) in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true
        (field key parsed <> None))
    [
      "duration_s"; "period_s"; "deadline_misses"; "kernels"; "sinks";
      "channels"; "bottleneck";
    ];
  (match field "kernels" parsed with
  | Some (JList ks) ->
    Alcotest.(check bool) "has kernels" true (ks <> []);
    let names =
      List.filter_map
        (fun k ->
          match field "name" k with Some (JStr s) -> Some s | _ -> None)
      ks
    in
    Alcotest.(check bool) "kernels sorted by name" true
      (List.sort compare names = names)
  | _ -> Alcotest.fail "kernels not a list");
  match field "bottleneck" parsed with
  | Some (JObj fields) ->
    Alcotest.(check bool) "bottleneck names a kernel" true
      (List.mem_assoc "kernel" fields)
  | _ -> Alcotest.fail "bottleneck not an object"

(* The elided-wake count is deterministic across identical runs: it is
   a pure function of the run. Runs are unobserved (no
   trace/channel/state observers), so wake elision is active. The count
   lives on [Sim.result] only: the registry carries no [sim.static.*]
   key, because any observer keeps a run event-driven and would export
   zero. Only the last pass's presence is asserted for its wall-clock
   gauge — timings themselves are not deterministic. *)
let test_static_metrics_deterministic () =
  let run () =
    let plan = compiled_pipeline () in
    let result = Sim.run_plan ~policy:Plan.One_to_one plan () in
    let obs = Instrument.create ~graph:plan.Pipeline.graph () in
    Instrument.finalize obs ~result;
    let m = Instrument.metrics obs in
    Instrument.record_compile m plan;
    (m, result)
  in
  let m, res1 = run () in
  let _, res2 = run () in
  Alcotest.(check int) "elided wakes identical across runs"
    res1.Sim.static_elided_events res2.Sim.static_elided_events;
  Alcotest.(check bool) "wakes actually elided" true
    (res1.Sim.static_elided_events > 0);
  Alcotest.(check int) "results identical across runs"
    res1.Sim.events_processed res2.Sim.events_processed;
  Alcotest.(check (list string)) "no sim.static.* key in the registry" []
    (List.filter
       (fun n -> String.starts_with ~prefix:"sim.static." n)
       (Metrics.names m));
  match Metrics.gauge m "compile.pass.map.wall_s" with
  | None -> Alcotest.fail "compile.pass.map.wall_s gauge missing"
  | Some w ->
    Alcotest.(check bool) "map pass wall gauge non-negative" true (w >= 0.)

(* ---- slot-indexed observers vs the string-keyed reference ------------- *)

module Instrument_ref = Obs_reference.Instrument_ref
module Health_ref = Obs_reference.Health_ref

(* One run feeds every callback to both the library's observers and the
   reference's; both then finalize and must agree byte for byte. Returns
   the run's [Ch_block] count, so the caller can check the comparison
   reached block accounting. *)
let check_against_reference ?sample_limit ?interval_limit tag g ~mapping
    ~machine =
  let ins = Instrument.create ?sample_limit ~graph:g () in
  let ins_ref = Instrument_ref.create ?sample_limit ~graph:g () in
  let hlt = Health.create ?interval_limit ~graph:g () in
  let hlt_ref = Health_ref.create ?interval_limit ~graph:g () in
  let result =
    Sim.run
      ~observer:
        (Instrument.compose
           [ Instrument.observer ins; Instrument_ref.observer ins_ref ])
      ~channel_observer:(fun ~time_s ~chan_id ~node ~proc ~event ~depth ->
        Instrument.channel_observer ins ~time_s ~chan_id ~node ~proc ~event
          ~depth;
        Instrument_ref.channel_observer ins_ref ~time_s ~chan_id ~node ~proc
          ~event ~depth)
      ~state_observer:(fun ~time_s ~node ~proc ~state ~chan ->
        Health.state_observer hlt ~time_s ~node ~proc ~state ~chan;
        Health_ref.state_observer hlt_ref ~time_s ~node ~proc ~state ~chan)
      ~graph:g ~mapping ~machine ()
  in
  Instrument.finalize ins ~result;
  Instrument_ref.finalize ins_ref ~result;
  Health.finalize hlt ~result ();
  Health_ref.finalize hlt_ref ~result;
  let json j = Obs_json.to_string j in
  let m = Instrument.metrics ins in
  Alcotest.(check string)
    (tag ^ ": Metrics.to_json")
    (json (Metrics.to_json (Instrument_ref.metrics ins_ref)))
    (json (Metrics.to_json m));
  Alcotest.(check bool)
    (tag ^ ": channel_series")
    true
    (Instrument_ref.channel_series ins_ref = Instrument.channel_series ins);
  Alcotest.(check string)
    (tag ^ ": Health.to_json")
    (json (Health_ref.to_json hlt_ref))
    (json (Health.to_json hlt));
  Alcotest.(check string)
    (tag ^ ": Health.metrics")
    (json (Metrics.to_json (Health_ref.metrics hlt_ref)))
    (json (Metrics.to_json (Health.metrics hlt)));
  let by_id l =
    List.map (fun ((n : Graph.node), proc, ivs) -> (n.Graph.id, proc, ivs)) l
  in
  Alcotest.(check bool)
    (tag ^ ": Health.intervals")
    true
    (by_id (Health_ref.intervals hlt_ref) = by_id (Health.intervals hlt));
  List.fold_left
    (fun acc (c : Graph.channel) ->
      acc + Metrics.counter m (Printf.sprintf "chan.%d.blocks" c.Graph.chan_id))
    0 (Graph.channels g)

let check_suite_entry ?sample_limit ?interval_limit tag label ~policy =
  let e = Apps.Suite.by_label label in
  let inst = e.Apps.Suite.build () in
  let compiled =
    Pipeline.compile ~machine:e.Apps.Suite.machine inst.App.graph
  in
  check_against_reference ?sample_limit ?interval_limit tag
    compiled.Pipeline.graph
    ~mapping:(Plan.mapping compiled ~policy)
    ~machine:compiled.Pipeline.machine

let test_observers_match_reference () =
  let blocks =
    List.fold_left
      (fun acc label ->
        List.fold_left
          (fun acc (policy, name) ->
            acc
            + check_suite_entry
                (Printf.sprintf "%s/%s" label name)
                label ~policy)
          acc
          [ (Plan.One_to_one, "1:1"); (Plan.Greedy, "greedy") ])
      0 Apps.Suite.labels
  in
  Alcotest.(check bool) "the suite exercises Ch_block accounting" true
    (blocks > 0);
  (* The drop paths: occupancy samples past [sample_limit], intervals
     past [interval_limit]. *)
  let label = List.hd Apps.Suite.labels in
  ignore
    (check_suite_entry ~sample_limit:7 ~interval_limit:5
       (label ^ "/greedy, limits 7 and 5")
       label ~policy:Plan.Greedy);
  (* No suite program blocks a source; the overloaded fixture does, and
     a source is an off-chip node. *)
  let g, _, _, _ = bottleneck_fixture () in
  ignore
    (check_against_reference "overloaded fixture" g
       ~mapping:(Mapping.one_to_one g) ~machine:Machine.default)

let suite =
  [
    Alcotest.test_case "metrics: counters, gauges, histograms" `Quick
      test_metrics_basics;
    Alcotest.test_case "static telemetry: stable keys, deterministic" `Quick
      test_static_metrics_deterministic;
    Alcotest.test_case "metrics: kind clash fails loudly" `Quick
      test_metrics_kind_clash;
    Alcotest.test_case "metrics: JSON snapshot valid" `Quick
      test_metrics_json_valid;
    Alcotest.test_case "instrument: hand-computed counts (tiny graph)" `Quick
      test_tiny_counts;
    Alcotest.test_case "instrument: occupancy series monotone" `Quick
      test_tiny_series_monotone;
    Alcotest.test_case "instrument: sample limit drops, counts" `Quick
      test_sample_limit;
    Alcotest.test_case "observers do not perturb the simulation" `Quick
      test_differential_observer_free;
    Alcotest.test_case "chrome trace: schema, tracks, monotone ts" `Quick
      test_chrome_trace_schema;
    Alcotest.test_case "json: escaping round-trips" `Quick
      test_json_escaping_roundtrip;
    Alcotest.test_case "pipeline: pass timings recorded" `Quick
      test_pass_timings;
    Alcotest.test_case "metrics: snapshots deterministic across orders" `Quick
      test_metrics_sorted_deterministic;
    Alcotest.test_case "trace recorder + first-output latency" `Quick
      test_trace_recorder_and_latency;
    Alcotest.test_case "health: intervals partition [0,duration] (suite)"
      `Slow test_health_partition_suite;
    Alcotest.test_case "health: bottleneck known answer" `Quick
      test_bottleneck_known_answer;
    Alcotest.test_case "health: frame latency and deadline misses" `Quick
      test_health_frames_and_deadlines;
    Alcotest.test_case "health: JSON snapshot valid and sorted" `Quick
      test_health_json_valid;
    Alcotest.test_case "observers match the string-keyed reference (suite)"
      `Slow test_observers_match_reference;
  ]
