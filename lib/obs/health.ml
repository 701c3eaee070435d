module Graph = Bp_graph.Graph
module Sim = Bp_sim.Sim
module Mapping = Bp_sim.Mapping
module Rate = Bp_geometry.Rate

type breakdown = {
  busy_s : float;
  blocked_input_s : float;
  blocked_output_s : float;
  idle_s : float;
}

type interval = {
  iv_state : Sim.kernel_state;
  iv_start : float;
  iv_end : float;
  iv_chan : int option;
}

type frame = {
  f_index : int;
  f_birth_s : float;
  f_arrival_s : float;
  f_latency_s : float;
  f_deadline_s : float option;
  f_missed : bool;
}

type bottleneck = {
  b_kernel : Graph.node;
  b_blocked_s : float;
  b_chan : Graph.channel option;
  b_culprit : Graph.node option;
  b_ranking : (Graph.node * breakdown) list;
}

let state_index = function
  | Sim.Ks_busy -> 0
  | Sim.Ks_blocked_input -> 1
  | Sim.Ks_blocked_output -> 2
  | Sim.Ks_idle -> 3

(* One track per on-chip kernel: the open interval being accumulated, the
   closed intervals kept for export, time totals per state, and blocked
   time attributed per culprit channel. Closed intervals tile the run
   from 0, so each is kept as its state, its end and its culprit channel
   (-1 for none) in growable arrays; it starts where the one before it
   ends. *)
type track = {
  t_node : Graph.node;
  mutable t_proc : int;  (* -1 until first examined *)
  mutable t_state : Sim.kernel_state;
  mutable t_chan : int option;
  mutable t_since : float;
  mutable t_states : Sim.kernel_state array;
  mutable t_ends : float array;
  mutable t_chans : int array;
  mutable t_kept : int;
  mutable t_dropped : int;
  t_acc : float array;  (* seconds per state, indexed by state_index *)
  t_chan_acc : (int, float ref) Hashtbl.t;  (* blocked seconds per chan *)
}

type sink_frames = { sf_node : Graph.node; sf_frames : frame list }

type t = {
  graph : Graph.t;
  m : Metrics.t;
  tracks : track array;  (* on-chip kernels, in id order *)
  track_slot : int array;  (* node id -> index into [tracks], or below *)
  interval_limit : int;
  mutable finalized : bool;
  mutable duration_s : float;
  mutable period_s : float option;
  mutable frames : sink_frames list;  (* in sink id order, after finalize *)
  mutable misses : int;
}

(* [track_slot] entries of a graph node without a track, and of an id the
   graph does not have. *)
let off_chip = -1
let not_in_graph = -2

let create ?(interval_limit = 500_000) ~graph () =
  let nodes = Graph.nodes graph in
  let tracks =
    List.filter Mapping.is_on_chip nodes
    |> List.map (fun (n : Graph.node) ->
           {
             t_node = n;
             t_proc = -1;
             t_state = Sim.Ks_idle;
             t_chan = None;
             t_since = 0.;
             t_states = [||];
             t_ends = [||];
             t_chans = [||];
             t_kept = 0;
             t_dropped = 0;
             t_acc = Array.make 4 0.;
             t_chan_acc = Hashtbl.create 4;
           })
    |> Array.of_list
  in
  let ids = List.map (fun (n : Graph.node) -> n.Graph.id) nodes in
  let track_slot = Array.make (List.fold_left max (-1) ids + 1) not_in_graph in
  List.iter (fun id -> track_slot.(id) <- off_chip) ids;
  Array.iteri (fun i tr -> track_slot.(tr.t_node.Graph.id) <- i) tracks;
  {
    graph;
    m = Metrics.create ();
    tracks;
    track_slot;
    interval_limit;
    finalized = false;
    duration_s = 0.;
    period_s = None;
    frames = [];
    misses = 0;
  }

let keep_interval t (tr : track) ~until =
  let n = tr.t_kept in
  if n = Array.length tr.t_ends then begin
    let cap = min t.interval_limit (max 64 (2 * n)) in
    let states = Array.make cap Sim.Ks_idle
    and ends = Array.make cap 0.
    and chans = Array.make cap (-1) in
    Array.blit tr.t_states 0 states 0 n;
    Array.blit tr.t_ends 0 ends 0 n;
    Array.blit tr.t_chans 0 chans 0 n;
    tr.t_states <- states;
    tr.t_ends <- ends;
    tr.t_chans <- chans
  end;
  tr.t_states.(n) <- tr.t_state;
  tr.t_ends.(n) <- until;
  tr.t_chans.(n) <- (match tr.t_chan with Some c -> c | None -> -1);
  tr.t_kept <- n + 1

let close_interval t (tr : track) ~until =
  let len = until -. tr.t_since in
  tr.t_acc.(state_index tr.t_state) <- tr.t_acc.(state_index tr.t_state) +. len;
  (match (tr.t_state, tr.t_chan) with
  | (Sim.Ks_blocked_input | Sim.Ks_blocked_output), Some c ->
      let r =
        match Hashtbl.find_opt tr.t_chan_acc c with
        | Some r -> r
        | None ->
            let r = ref 0. in
            Hashtbl.replace tr.t_chan_acc c r;
            r
      in
      r := !r +. len
  | _ -> ());
  if tr.t_kept < t.interval_limit then keep_interval t tr ~until
  else tr.t_dropped <- tr.t_dropped + 1

let state_observer t ~time_s ~node ~proc ~state ~chan =
  let id = node.Graph.id in
  let i =
    if id >= 0 && id < Array.length t.track_slot then t.track_slot.(id)
    else not_in_graph
  in
  if i >= 0 then begin
    let tr = t.tracks.(i) in
    tr.t_proc <- proc;
    close_interval t tr ~until:time_s;
    tr.t_state <- state;
    tr.t_chan <- chan;
    tr.t_since <- time_s
  end
  else if i = not_in_graph then
    invalid_arg
      (Printf.sprintf "Health: node %d is not in the graph given to create" id)

(* The declared frame period of the graph's first timed source, if any. *)
let declared_period graph =
  let rec first = function
    | [] -> None
    | (n : Graph.node) :: rest -> (
        match n.Graph.meta with
        | Graph.Source_meta { rate; _ } -> Some (Rate.frame_period_s rate)
        | _ -> first rest)
  in
  first (Graph.sources graph)

(* Merge per-source birth lists into one per-frame-index birth: frame k is
   born when the first source emits its k-th frame's first pixel. *)
let merged_births (result : Sim.result) =
  let n =
    List.fold_left
      (fun acc (_, l) -> max acc (List.length l))
      0 result.Sim.source_frame_births
  in
  let births = Array.make n infinity in
  List.iter
    (fun (_, l) ->
      List.iteri (fun k b -> if b < births.(k) then births.(k) <- b) l)
    result.Sim.source_frame_births;
  births

(* Frame deadlines stretch as far past the period as
   {!Bp_sim.Sim.real_time_verdict} lets frame intervals stretch. *)
let deadline_tolerance = 0.05

let sink_frame_list births ~period_s eofs =
  let t0 = match eofs with [] -> 0. | t :: _ -> t in
  List.mapi
    (fun k arrival ->
      if k < Array.length births && births.(k) < infinity then
        let deadline =
          match period_s with
          | None -> None
          | Some p ->
            Some
              (t0 +. (float_of_int k *. p *. (1. +. deadline_tolerance)))
        in
        let missed =
          match deadline with None -> false | Some d -> arrival > d
        in
        Some
          {
            f_index = k;
            f_birth_s = births.(k);
            f_arrival_s = arrival;
            f_latency_s = arrival -. births.(k);
            f_deadline_s = deadline;
            f_missed = missed;
          }
      else None)
    eofs
  |> List.filter_map Fun.id

let finalize t ~(result : Sim.result) () =
  if t.finalized then invalid_arg "Health.finalize: already finalized";
  t.finalized <- true;
  t.duration_s <- result.Sim.duration_s;
  let period_s = declared_period t.graph in
  t.period_s <- period_s;
  Metrics.set t.m "sim.duration_s" t.duration_s;
  (* Close every kernel's open interval at the end of the run and derive
     the per-kernel time-breakdown gauges. *)
  Array.iter
    (fun tr ->
      close_interval t tr ~until:t.duration_s;
      let name = tr.t_node.Graph.name in
      Metrics.set t.m (Printf.sprintf "kernel.%s.busy_s" name) tr.t_acc.(0);
      Metrics.set t.m
        (Printf.sprintf "kernel.%s.blocked_on_input_s" name)
        tr.t_acc.(1);
      Metrics.set t.m
        (Printf.sprintf "kernel.%s.blocked_on_output_s" name)
        tr.t_acc.(2);
      Metrics.set t.m (Printf.sprintf "kernel.%s.idle_s" name) tr.t_acc.(3))
    t.tracks;
  (* Channel high-watermarks against the compiled capacities. *)
  List.iter
    (fun (id, depth) ->
      let cap = (Graph.channel t.graph id).Graph.capacity in
      Metrics.set t.m (Printf.sprintf "chan.%d.hwm" id) (float_of_int depth);
      Metrics.set t.m
        (Printf.sprintf "chan.%d.capacity" id)
        (float_of_int cap);
      if cap > 0 then
        Metrics.set t.m
          (Printf.sprintf "chan.%d.hwm_frac" id)
          (float_of_int depth /. float_of_int cap))
    result.Sim.channel_depths;
  (* Per-frame end-to-end latency and deadline accounting. *)
  let births = merged_births result in
  t.frames <-
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      result.Sim.sink_eofs
    |> List.map (fun (sink_id, eofs) ->
           let sf_node = Graph.node t.graph sink_id in
           let frames = sink_frame_list births ~period_s eofs in
           let name = sf_node.Graph.name in
           List.iter
             (fun f ->
               Metrics.observe t.m
                 (Printf.sprintf "sink.%s.frame_latency_s" name)
                 f.f_latency_s;
               Metrics.incr t.m (Printf.sprintf "sink.%s.frames" name);
               if f.f_missed then begin
                 Metrics.incr t.m
                   (Printf.sprintf "sink.%s.deadline_misses" name);
                 Metrics.incr t.m "sim.deadline_misses";
                 t.misses <- t.misses + 1
               end)
             frames;
           (* Successive end-of-frame intervals: the jitter the real-time
              verdict checks in aggregate. *)
           let rec intervals = function
             | a :: (b :: _ as rest) ->
                 Metrics.observe t.m
                   (Printf.sprintf "sink.%s.frame_interval_s" name)
                   (b -. a);
                 intervals rest
             | _ -> ()
           in
           intervals eofs;
           { sf_node; sf_frames = frames })

let ensure_finalized t fn =
  if not t.finalized then
    invalid_arg (Printf.sprintf "Health.%s: call finalize first" fn)

let metrics t = t.m

let breakdown t id =
  if id < 0 || id >= Array.length t.track_slot || t.track_slot.(id) < 0 then
    None
  else
    let tr = t.tracks.(t.track_slot.(id)) in
    Some
      {
        busy_s = tr.t_acc.(0);
        blocked_input_s = tr.t_acc.(1);
        blocked_output_s = tr.t_acc.(2);
        idle_s = tr.t_acc.(3);
      }

let sorted_tracks t = Array.to_list t.tracks

let track_intervals tr =
  List.init tr.t_kept (fun i ->
      {
        iv_state = tr.t_states.(i);
        iv_start = (if i = 0 then 0. else tr.t_ends.(i - 1));
        iv_end = tr.t_ends.(i);
        iv_chan = (if tr.t_chans.(i) < 0 then None else Some tr.t_chans.(i));
      })

let intervals t =
  ensure_finalized t "intervals";
  List.map
    (fun tr -> (tr.t_node, tr.t_proc, track_intervals tr))
    (sorted_tracks t)

let frames t =
  ensure_finalized t "frames";
  List.map (fun sf -> (sf.sf_node, sf.sf_frames)) t.frames

let deadline_misses t = t.misses

let blocked_of tr = tr.t_acc.(1) +. tr.t_acc.(2)

let bottleneck t =
  ensure_finalized t "bottleneck";
  let ranked =
    sorted_tracks t
    |> List.sort (fun a b ->
           match compare (blocked_of b) (blocked_of a) with
           | 0 -> compare a.t_node.Graph.id b.t_node.Graph.id
           | c -> c)
  in
  match ranked with
  | [] -> None
  | top :: _ ->
      (* The binding channel: the edge this kernel spent the most blocked
         time against; its other endpoint is the likely rate limiter. *)
      let b_chan =
        Hashtbl.fold
          (fun c r best ->
            match best with
            | Some (_, bt) when bt >= !r -> best
            | _ -> Some (c, !r))
          top.t_chan_acc None
        |> Option.map (fun (c, _) -> Graph.channel t.graph c)
      in
      let b_culprit =
        Option.map
          (fun (c : Graph.channel) ->
            let other =
              if c.Graph.src.Graph.node = top.t_node.Graph.id then
                c.Graph.dst.Graph.node
              else c.Graph.src.Graph.node
            in
            Graph.node t.graph other)
          b_chan
      in
      Some
        {
          b_kernel = top.t_node;
          b_blocked_s = blocked_of top;
          b_chan;
          b_culprit;
          b_ranking =
            List.map
              (fun tr ->
                ( tr.t_node,
                  {
                    busy_s = tr.t_acc.(0);
                    blocked_input_s = tr.t_acc.(1);
                    blocked_output_s = tr.t_acc.(2);
                    idle_s = tr.t_acc.(3);
                  } ))
              ranked;
        }

let to_json t =
  ensure_finalized t "to_json";
  let kernels =
    sorted_tracks t
    |> List.sort (fun a b -> compare a.t_node.Graph.name b.t_node.Graph.name)
    |> List.map (fun tr ->
           Json.Obj
             [
               ("name", Json.Str tr.t_node.Graph.name);
               ("proc", if tr.t_proc < 0 then Json.Null else Json.Int tr.t_proc);
               ("busy_s", Json.float tr.t_acc.(0));
               ("blocked_on_input_s", Json.float tr.t_acc.(1));
               ("blocked_on_output_s", Json.float tr.t_acc.(2));
               ("idle_s", Json.float tr.t_acc.(3));
               ("intervals", Json.Int tr.t_kept);
               ("intervals_dropped", Json.Int tr.t_dropped);
             ])
  in
  let sinks =
    t.frames
    |> List.sort (fun a b ->
           compare a.sf_node.Graph.name b.sf_node.Graph.name)
    |> List.map (fun sf ->
           Json.Obj
             [
               ("name", Json.Str sf.sf_node.Graph.name);
               ("frames", Json.Int (List.length sf.sf_frames));
               ( "deadline_misses",
                 Json.Int
                   (List.length (List.filter (fun f -> f.f_missed) sf.sf_frames))
               );
               ( "frame_detail",
                 Json.List
                   (List.map
                      (fun f ->
                        Json.Obj
                          [
                            ("index", Json.Int f.f_index);
                            ("birth_s", Json.float f.f_birth_s);
                            ("arrival_s", Json.float f.f_arrival_s);
                            ("latency_s", Json.float f.f_latency_s);
                            ( "deadline_s",
                              match f.f_deadline_s with
                              | None -> Json.Null
                              | Some d -> Json.float d );
                            ("missed", Json.Bool f.f_missed);
                          ])
                      sf.sf_frames) );
             ])
  in
  let channels =
    Graph.channels t.graph
    |> List.filter_map (fun (c : Graph.channel) ->
           match Metrics.gauge t.m (Printf.sprintf "chan.%d.hwm" c.Graph.chan_id) with
           | None -> None
           | Some hwm ->
               Some
                 (Json.Obj
                    [
                      ("id", Json.Int c.Graph.chan_id);
                      ( "label",
                        Json.Str (Instrument.channel_label t.graph c.Graph.chan_id)
                      );
                      ("capacity", Json.Int c.Graph.capacity);
                      ("hwm", Json.Int (int_of_float hwm));
                      ( "hwm_frac",
                        if c.Graph.capacity > 0 then
                          Json.float (hwm /. float_of_int c.Graph.capacity)
                        else Json.Null );
                    ]))
  in
  let bottleneck_json =
    match bottleneck t with
    | None -> Json.Null
    | Some b ->
        Json.Obj
          [
            ("kernel", Json.Str b.b_kernel.Graph.name);
            ("blocked_s", Json.float b.b_blocked_s);
            ( "channel",
              match b.b_chan with
              | None -> Json.Null
              | Some c -> Json.Int c.Graph.chan_id );
            ( "channel_label",
              match b.b_chan with
              | None -> Json.Null
              | Some c ->
                  Json.Str (Instrument.channel_label t.graph c.Graph.chan_id) );
            ( "culprit",
              match b.b_culprit with
              | None -> Json.Null
              | Some n -> Json.Str n.Graph.name );
          ]
  in
  Json.Obj
    [
      ("duration_s", Json.float t.duration_s);
      ( "period_s",
        match t.period_s with None -> Json.Null | Some p -> Json.float p );
      ("deadline_misses", Json.Int t.misses);
      ("kernels", Json.List kernels);
      ("sinks", Json.List sinks);
      ("channels", Json.List channels);
      ("bottleneck", bottleneck_json);
    ]

let pct t v = if t.duration_s > 0. then 100. *. v /. t.duration_s else 0.

let pp_bottleneck ppf t =
  ensure_finalized t "pp_bottleneck";
  Format.fprintf ppf "Bottleneck report — duration %.6f s, %d deadline miss%s@."
    t.duration_s t.misses
    (if t.misses = 1 then "" else "es");
  match bottleneck t with
  | None -> Format.fprintf ppf "  (no on-chip kernels)@."
  | Some b ->
      Format.fprintf ppf "  %4s  %-24s %8s %8s %8s %8s@." "rank" "kernel"
        "busy%" "blk-in%" "blk-out%" "idle%";
      List.iteri
        (fun i (n, bd) ->
          Format.fprintf ppf "  %4d  %-24s %8.1f %8.1f %8.1f %8.1f@." (i + 1)
            n.Graph.name (pct t bd.busy_s)
            (pct t bd.blocked_input_s)
            (pct t bd.blocked_output_s)
            (pct t bd.idle_s))
        b.b_ranking;
      if b.b_blocked_s <= 0. then
        Format.fprintf ppf
          "No stalls observed: no kernel was ever blocked — the pipeline is \
           source-limited, not kernel-limited.@."
      else begin
        Format.fprintf ppf "Most blocked: %s (%.6f s, %.1f%% of the run)@."
          b.b_kernel.Graph.name b.b_blocked_s (pct t b.b_blocked_s);
        (match b.b_chan with
        | None ->
            Format.fprintf ppf
              "Binding channel: none attributed (starved mid-window)@."
        | Some c ->
            let hwm =
              match
                Metrics.gauge t.m (Printf.sprintf "chan.%d.hwm" c.Graph.chan_id)
              with
              | Some h -> int_of_float h
              | None -> 0
            in
            Format.fprintf ppf "Binding channel: %s (chan %d, hwm %d/%d)@."
              (Instrument.channel_label t.graph c.Graph.chan_id)
              c.Graph.chan_id hwm c.Graph.capacity);
        match b.b_culprit with
        | None -> ()
        | Some n ->
            let busy =
              match breakdown t n.Graph.id with
              | Some bd -> pct t bd.busy_s
              | None -> 0.
            in
            Format.fprintf ppf "Likely rate limiter: %s (busy %.1f%%)@."
              n.Graph.name busy
      end
