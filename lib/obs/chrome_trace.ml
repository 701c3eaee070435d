module Graph = Bp_graph.Graph
module Sim = Bp_sim.Sim
module Trace = Bp_sim.Trace
module Pipeline = Bp_compiler.Pipeline

let us_of_s s = 1e6 *. s

(* Process ids: 0 = the simulated chip, 1 = the compiler. *)
let sim_pid = 0
let compiler_pid = 1

let metadata ~pid ?tid ~name ~value () =
  let base =
    [
      ("name", Json.Str name);
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("ts", Json.Int 0);
      ("args", Json.Obj [ ("name", Json.Str value) ]);
    ]
  in
  match tid with
  | None -> Json.Obj base
  | Some t -> Json.Obj (base @ [ ("tid", Json.Int t) ])

let firing_event (f : Trace.firing) =
  Json.Obj
    [
      ("name", Str (f.Trace.kernel ^ "." ^ f.Trace.method_name));
      ("cat", Str "firing");
      ("ph", Str "X");
      ("ts", Json.float (us_of_s f.Trace.at_s));
      ("dur", Json.float (us_of_s f.Trace.service_s));
      ("pid", Int sim_pid);
      ("tid", Int f.Trace.proc);
      ( "args",
        Obj
          [
            ("kernel", Str f.Trace.kernel);
            ("method", Str f.Trace.method_name);
          ] );
    ]

let counter_event ~name ~ts_us ~depth =
  Json.Obj
    [
      ("name", Str name);
      ("cat", Str "channel");
      ("ph", Str "C");
      ("ts", Json.float ts_us);
      ("pid", Int sim_pid);
      ("args", Obj [ ("items", Int depth) ]);
    ]

(* Stall tracks ride above the firing tracks: PE p's stalls live on
   thread id [stall_tid_base + p]. *)
let stall_tid_base = 1000

let stall_event ~graph ~kernel ~tid ~ts_us ~dur_us ~state ~chan =
  let cname =
    (* Perfetto reserved color names: input starvation amber, output
       backpressure red. *)
    match state with
    | Sim.Ks_blocked_output -> "terrible"
    | _ -> "bad"
  in
  Json.Obj
    [
      ("name", Str (kernel ^ " " ^ Sim.kernel_state_name state));
      ("cat", Str "stall");
      ("ph", Str "X");
      ("ts", Json.float ts_us);
      ("dur", Json.float dur_us);
      ("pid", Int sim_pid);
      ("tid", Int tid);
      ("cname", Str cname);
      ( "args",
        Obj
          (("kernel", Json.Str kernel)
          ::
          (match chan with
          | None -> []
          | Some id ->
              [
                ("channel", Json.Int id);
                ("channel_label", Json.Str (Instrument.channel_label graph id));
              ])) );
    ]

(* One async begin/end pair per frame: Perfetto draws the birth-to-arrival
   span, i.e. the frame's end-to-end latency. Ids must be unique per
   concurrently open async track; frames of one sink never overlap, so
   the sink id alone suffices. *)
let frame_flow_events ~sink (f : Health.frame) =
  let base ph ts =
    [
      ("name", Json.Str ("frame@" ^ sink));
      ("cat", Json.Str "frame");
      ("ph", Json.Str ph);
      ("id", Json.Str sink);
      ("ts", Json.float (us_of_s ts));
      ("pid", Json.Int sim_pid);
      ("tid", Json.Int 0);
    ]
  in
  [
    ( us_of_s f.Health.f_birth_s,
      Json.Obj
        (base "b" f.Health.f_birth_s
        @ [
            ( "args",
              Json.Obj
                [
                  ("index", Json.Int f.Health.f_index);
                  ("missed", Json.Bool f.Health.f_missed);
                ] );
          ]) );
    ( us_of_s f.Health.f_arrival_s,
      Json.Obj
        (base "e" f.Health.f_arrival_s
        @ [
            ( "args",
              Json.Obj
                [
                  ("index", Json.Int f.Health.f_index);
                  ( "latency_us",
                    Json.float (us_of_s f.Health.f_latency_s) );
                ] );
          ]) );
  ]

let pass_events passes =
  let _, rev =
    List.fold_left
      (fun (t_us, acc) (p : Pipeline.pass_timing) ->
        let dur = us_of_s p.Pipeline.wall_s in
        let ev =
          Json.Obj
            [
              ("name", Str p.Pipeline.pass);
              ("cat", Str "compile-pass");
              ("ph", Str "X");
              ("ts", Json.float t_us);
              ("dur", Json.float dur);
              ("pid", Int compiler_pid);
              ("tid", Int 0);
              ( "args",
                Obj
                  [
                    ("nodes_before", Int p.Pipeline.nodes_before);
                    ("nodes_after", Int p.Pipeline.nodes_after);
                    ("channels_before", Int p.Pipeline.channels_before);
                    ("channels_after", Int p.Pipeline.channels_after);
                  ] );
            ]
        in
        (t_us +. dur, (t_us, ev) :: acc))
      (0., []) passes
  in
  List.rev rev

let of_run ?compile_passes ?instrument ?health ~graph ~trace () =
  let firings = Trace.firings trace in
  let procs =
    List.fold_left (fun acc (f : Trace.firing) -> max acc f.Trace.proc) (-1)
      firings
  in
  let stall_procs =
    match health with
    | None -> []
    | Some h ->
        List.filter_map
          (fun (_, proc, _) -> if proc >= 0 then Some proc else None)
          (Health.intervals h)
        |> List.sort_uniq compare
  in
  let meta =
    metadata ~pid:sim_pid ~name:"process_name" ~value:"bp-sim" ()
    :: List.concat
         [
           List.init (procs + 1) (fun p ->
               metadata ~pid:sim_pid ~tid:p ~name:"thread_name"
                 ~value:(Printf.sprintf "PE %d" p) ());
           List.map
             (fun p ->
               metadata ~pid:sim_pid ~tid:(stall_tid_base + p)
                 ~name:"thread_name"
                 ~value:(Printf.sprintf "PE %d stalls" p) ())
             stall_procs;
           (match compile_passes with
           | Some _ ->
             [
               metadata ~pid:compiler_pid ~name:"process_name"
                 ~value:"bpc compile" ();
               metadata ~pid:compiler_pid ~tid:0 ~name:"thread_name"
                 ~value:"passes" ();
             ]
           | None -> []);
         ]
  in
  let timed =
    List.concat
      [
        List.map (fun f -> (us_of_s f.Trace.at_s, firing_event f)) firings;
        (match instrument with
        | None -> []
        | Some inst ->
          List.concat_map
            (fun (id, samples) ->
              let name =
                Printf.sprintf "chan.%d %s" id
                  (Instrument.channel_label graph id)
              in
              List.map
                (fun (t_s, depth) ->
                  let ts_us = us_of_s t_s in
                  (ts_us, counter_event ~name ~ts_us ~depth))
                samples)
            (Instrument.channel_series inst));
        (match health with
        | None -> []
        | Some h ->
          List.concat
            [
              List.concat_map
                (fun ((node : Graph.node), proc, ivs) ->
                  if proc < 0 then []
                  else
                    List.filter_map
                      (fun (iv : Health.interval) ->
                        match iv.Health.iv_state with
                        | Sim.Ks_blocked_input | Sim.Ks_blocked_output
                          when iv.Health.iv_end > iv.Health.iv_start ->
                            let ts_us = us_of_s iv.Health.iv_start in
                            Some
                              ( ts_us,
                                stall_event ~graph ~kernel:node.Graph.name
                                  ~tid:(stall_tid_base + proc) ~ts_us
                                  ~dur_us:
                                    (us_of_s
                                       (iv.Health.iv_end -. iv.Health.iv_start))
                                  ~state:iv.Health.iv_state
                                  ~chan:iv.Health.iv_chan )
                        | _ -> None)
                      ivs)
                (Health.intervals h);
              List.concat_map
                (fun ((sink : Graph.node), frames) ->
                  List.concat_map
                    (frame_flow_events ~sink:sink.Graph.name)
                    frames)
                (Health.frames h);
            ]);
        (match compile_passes with
        | None -> []
        | Some passes -> pass_events passes);
      ]
  in
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) timed
  in
  (* Metadata first (ts 0), then everything else sorted by ts: the schema
     promises monotone timestamps, which tests and downstream consumers
     rely on. *)
  let events = meta @ List.map snd sorted in
  Json.Obj
    [
      ("traceEvents", List events); ("displayTimeUnit", Str "ms");
    ]

let write_file = Json.write_file
