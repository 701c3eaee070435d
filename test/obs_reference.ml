(* The string-keyed observers, kept as a reference.

   This is the original per-event bookkeeping of [Instrument] and
   [Health], frozen: every firing and every push or pop formats its metric
   names and looks them up in the [Metrics] registry, occupancy samples
   are consed onto per-channel lists, kernel state tracks are found in a
   hashtable and closed intervals are consed onto per-kernel lists. The
   slot-indexed recorders in lib/obs must produce exactly what these do —
   the registry snapshot, the occupancy series, the health snapshot and
   its intervals — over the whole benchmark suite ([test/test_obs.ml]).
   Nothing outside the tests uses this module. *)

open Block_parallel

module Instrument_ref = struct
  type series = {
    mutable rev_samples : (float * int) list;
    mutable n_samples : int;
    mutable dropped : int;
  }

  type t = {
    m : Metrics.t;
    sample_limit : int;
    channels : (int, series) Hashtbl.t;
  }

  let kernel_fires name = Printf.sprintf "kernel.%s.fires" name
  let kernel_service name = Printf.sprintf "kernel.%s.service_s" name
  let kernel_blocks name = Printf.sprintf "kernel.%s.blocks" name
  let pe_fires p = Printf.sprintf "pe.%d.fires" p
  let pe_busy p = Printf.sprintf "pe.%d.busy_s" p
  let pe_idle p = Printf.sprintf "pe.%d.idle_s" p
  let pe_util p = Printf.sprintf "pe.%d.util" p
  let chan_pushes id = Printf.sprintf "chan.%d.pushes" id
  let chan_pops id = Printf.sprintf "chan.%d.pops" id
  let chan_blocks id = Printf.sprintf "chan.%d.blocks" id
  let chan_max_depth id = Printf.sprintf "chan.%d.max_depth" id
  let chan_dropped id = Printf.sprintf "chan.%d.samples_dropped" id

  let create ?(sample_limit = 200_000) ~graph () =
    let m = Metrics.create () in
    let channels = Hashtbl.create 32 in
    List.iter
      (fun (n : Graph.node) ->
        if Mapping.is_on_chip n then begin
          Metrics.incr m ~by:0 (kernel_fires n.Graph.name);
          Metrics.incr m ~by:0 (kernel_blocks n.Graph.name)
        end)
      (Graph.nodes graph);
    List.iter
      (fun (c : Graph.channel) ->
        let id = c.Graph.chan_id in
        Metrics.incr m ~by:0 (chan_pushes id);
        Metrics.incr m ~by:0 (chan_pops id);
        Metrics.incr m ~by:0 (chan_blocks id);
        Metrics.set_max m (chan_max_depth id) 0.;
        Hashtbl.replace channels id
          { rev_samples = []; n_samples = 0; dropped = 0 })
      (Graph.channels graph);
    { m; sample_limit; channels }

  let metrics t = t.m

  let observer t ~time_s:_ ~proc ~node ~method_name:_ ~service_s =
    Metrics.incr t.m (kernel_fires node.Graph.name);
    Metrics.observe t.m (kernel_service node.Graph.name) service_s;
    Metrics.incr t.m (pe_fires proc);
    Metrics.add t.m (pe_busy proc) service_s

  let series_of t chan_id =
    match Hashtbl.find_opt t.channels chan_id with
    | Some s -> s
    | None ->
      let s = { rev_samples = []; n_samples = 0; dropped = 0 } in
      Hashtbl.replace t.channels chan_id s;
      s

  let channel_observer t ~time_s ~chan_id ~node ~proc:_ ~event ~depth =
    (match event with
    | Sim.Ch_push -> Metrics.incr t.m (chan_pushes chan_id)
    | Sim.Ch_pop -> Metrics.incr t.m (chan_pops chan_id)
    | Sim.Ch_block ->
      Metrics.incr t.m (chan_blocks chan_id);
      Metrics.incr t.m (kernel_blocks node.Graph.name));
    Metrics.set_max t.m (chan_max_depth chan_id) (float_of_int depth);
    match event with
    | Sim.Ch_block -> ()
    | Sim.Ch_push | Sim.Ch_pop ->
      let s = series_of t chan_id in
      if s.n_samples < t.sample_limit then begin
        s.rev_samples <- (time_s, depth) :: s.rev_samples;
        s.n_samples <- s.n_samples + 1
      end
      else begin
        s.dropped <- s.dropped + 1;
        Metrics.incr t.m (chan_dropped chan_id)
      end

  let finalize t ~(result : Sim.result) =
    let duration = result.Sim.duration_s in
    Metrics.set t.m "sim.duration_s" duration;
    Metrics.incr t.m ~by:result.Sim.input_stalls "sim.input_stalls";
    Metrics.incr t.m ~by:result.Sim.late_emissions "sim.late_emissions";
    Metrics.incr t.m ~by:result.Sim.leftover_items "sim.leftover_items";
    Metrics.set t.m "sim.timed_out" (if result.Sim.timed_out then 1. else 0.);
    Array.iteri
      (fun p _ ->
        let busy = Option.value ~default:0. (Metrics.gauge t.m (pe_busy p)) in
        Metrics.set t.m (pe_busy p) busy;
        Metrics.set t.m (pe_idle p) (Float.max 0. (duration -. busy));
        Metrics.set t.m (pe_util p)
          (if duration > 0. then busy /. duration else 0.))
      result.Sim.procs;
    List.iter
      (fun (id, depth) ->
        Metrics.set_max t.m (chan_max_depth id) (float_of_int depth))
      result.Sim.channel_depths

  let channel_series t =
    Hashtbl.fold
      (fun id s acc -> (id, List.rev s.rev_samples) :: acc)
      t.channels []
    |> List.sort compare
end

module Health_ref = struct
  type track = {
    t_node : Graph.node;
    mutable t_proc : int;
    mutable t_state : Sim.kernel_state;
    mutable t_chan : int option;
    mutable t_since : float;
    mutable t_rev : Health.interval list;
    mutable t_kept : int;
    mutable t_dropped : int;
    t_acc : float array;
    t_chan_acc : (int, float ref) Hashtbl.t;
  }

  type t = {
    graph : Graph.t;
    m : Metrics.t;
    tracks : (Graph.node_id, track) Hashtbl.t;
    interval_limit : int;
    mutable duration_s : float;
    mutable period_s : float option;
    mutable frames : (Graph.node * Health.frame list) list;
    mutable misses : int;
  }

  let state_index = function
    | Sim.Ks_busy -> 0
    | Sim.Ks_blocked_input -> 1
    | Sim.Ks_blocked_output -> 2
    | Sim.Ks_idle -> 3

  let create ?(interval_limit = 500_000) ~graph () =
    let tracks = Hashtbl.create 64 in
    List.iter
      (fun (n : Graph.node) ->
        if Mapping.is_on_chip n then
          Hashtbl.replace tracks n.Graph.id
            {
              t_node = n;
              t_proc = -1;
              t_state = Sim.Ks_idle;
              t_chan = None;
              t_since = 0.;
              t_rev = [];
              t_kept = 0;
              t_dropped = 0;
              t_acc = Array.make 4 0.;
              t_chan_acc = Hashtbl.create 4;
            })
      (Graph.nodes graph);
    {
      graph;
      m = Metrics.create ();
      tracks;
      interval_limit;
      duration_s = 0.;
      period_s = None;
      frames = [];
      misses = 0;
    }

  let close_interval t (tr : track) ~until =
    let len = until -. tr.t_since in
    tr.t_acc.(state_index tr.t_state) <-
      tr.t_acc.(state_index tr.t_state) +. len;
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
    if tr.t_kept < t.interval_limit then begin
      tr.t_rev <-
        {
          Health.iv_state = tr.t_state;
          iv_start = tr.t_since;
          iv_end = until;
          iv_chan = tr.t_chan;
        }
        :: tr.t_rev;
      tr.t_kept <- tr.t_kept + 1
    end
    else tr.t_dropped <- tr.t_dropped + 1

  let state_observer t ~time_s ~node ~proc ~state ~chan =
    match Hashtbl.find_opt t.tracks node.Graph.id with
    | None -> ()
    | Some tr ->
      tr.t_proc <- proc;
      close_interval t tr ~until:time_s;
      tr.t_state <- state;
      tr.t_chan <- chan;
      tr.t_since <- time_s

  let declared_period graph =
    let rec first = function
      | [] -> None
      | (n : Graph.node) :: rest -> (
        match n.Graph.meta with
        | Graph.Source_meta { rate; _ } -> Some (Rate.frame_period_s rate)
        | _ -> first rest)
    in
    first (Graph.sources graph)

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

  let sink_frame_list births ~period_s ~tolerance eofs =
    let t0 = match eofs with [] -> 0. | t :: _ -> t in
    List.mapi
      (fun k arrival ->
        if k < Array.length births && births.(k) < infinity then
          let deadline =
            match period_s with
            | None -> None
            | Some p -> Some (t0 +. (float_of_int k *. p *. (1. +. tolerance)))
          in
          let missed =
            match deadline with None -> false | Some d -> arrival > d
          in
          Some
            {
              Health.f_index = k;
              f_birth_s = births.(k);
              f_arrival_s = arrival;
              f_latency_s = arrival -. births.(k);
              f_deadline_s = deadline;
              f_missed = missed;
            }
        else None)
      eofs
    |> List.filter_map Fun.id

  let finalize t ~(result : Sim.result) =
    let tolerance = 0.05 in
    t.duration_s <- result.Sim.duration_s;
    let period_s = declared_period t.graph in
    t.period_s <- period_s;
    Metrics.set t.m "sim.duration_s" t.duration_s;
    Hashtbl.iter
      (fun _ tr ->
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
    let births = merged_births result in
    t.frames <-
      List.sort (fun (a, _) (b, _) -> compare a b) result.Sim.sink_eofs
      |> List.map (fun (sink_id, eofs) ->
             let sf_node = Graph.node t.graph sink_id in
             let frames = sink_frame_list births ~period_s ~tolerance eofs in
             let name = sf_node.Graph.name in
             List.iter
               (fun (f : Health.frame) ->
                 Metrics.observe t.m
                   (Printf.sprintf "sink.%s.frame_latency_s" name)
                   f.Health.f_latency_s;
                 Metrics.incr t.m (Printf.sprintf "sink.%s.frames" name);
                 if f.Health.f_missed then begin
                   Metrics.incr t.m
                     (Printf.sprintf "sink.%s.deadline_misses" name);
                   Metrics.incr t.m "sim.deadline_misses";
                   t.misses <- t.misses + 1
                 end)
               frames;
             let rec intervals = function
               | a :: (b :: _ as rest) ->
                 Metrics.observe t.m
                   (Printf.sprintf "sink.%s.frame_interval_s" name)
                   (b -. a);
                 intervals rest
               | _ -> ()
             in
             intervals eofs;
             (sf_node, frames))

  let metrics t = t.m

  let sorted_tracks t =
    Hashtbl.fold (fun _ tr acc -> tr :: acc) t.tracks []
    |> List.sort (fun a b -> compare a.t_node.Graph.id b.t_node.Graph.id)

  let intervals t =
    List.map
      (fun tr -> (tr.t_node, tr.t_proc, List.rev tr.t_rev))
      (sorted_tracks t)

  let blocked_of tr = tr.t_acc.(1) +. tr.t_acc.(2)

  (* The kernel, blocked seconds, binding channel and culprit of the
     parent's [Health.bottleneck]. *)
  let bottleneck t =
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
      Some (top.t_node, blocked_of top, b_chan, b_culprit)

  let to_json t =
    let kernels =
      sorted_tracks t
      |> List.sort (fun a b -> compare a.t_node.Graph.name b.t_node.Graph.name)
      |> List.map (fun tr ->
             Obs_json.Obj
               [
                 ("name", Obs_json.Str tr.t_node.Graph.name);
                 ( "proc",
                   if tr.t_proc < 0 then Obs_json.Null
                   else Obs_json.Int tr.t_proc );
                 ("busy_s", Obs_json.float tr.t_acc.(0));
                 ("blocked_on_input_s", Obs_json.float tr.t_acc.(1));
                 ("blocked_on_output_s", Obs_json.float tr.t_acc.(2));
                 ("idle_s", Obs_json.float tr.t_acc.(3));
                 ("intervals", Obs_json.Int tr.t_kept);
                 ("intervals_dropped", Obs_json.Int tr.t_dropped);
               ])
    in
    let sinks =
      t.frames
      |> List.sort (fun ((a : Graph.node), _) ((b : Graph.node), _) ->
             compare a.Graph.name b.Graph.name)
      |> List.map (fun ((node : Graph.node), (frames : Health.frame list)) ->
             Obs_json.Obj
               [
                 ("name", Obs_json.Str node.Graph.name);
                 ("frames", Obs_json.Int (List.length frames));
                 ( "deadline_misses",
                   Obs_json.Int
                     (List.length
                        (List.filter (fun f -> f.Health.f_missed) frames)) );
                 ( "frame_detail",
                   Obs_json.List
                     (List.map
                        (fun (f : Health.frame) ->
                          Obs_json.Obj
                            [
                              ("index", Obs_json.Int f.Health.f_index);
                              ("birth_s", Obs_json.float f.Health.f_birth_s);
                              ( "arrival_s",
                                Obs_json.float f.Health.f_arrival_s );
                              ( "latency_s",
                                Obs_json.float f.Health.f_latency_s );
                              ( "deadline_s",
                                match f.Health.f_deadline_s with
                                | None -> Obs_json.Null
                                | Some d -> Obs_json.float d );
                              ("missed", Obs_json.Bool f.Health.f_missed);
                            ])
                        frames) );
               ])
    in
    let channels =
      Graph.channels t.graph
      |> List.filter_map (fun (c : Graph.channel) ->
             match
               Metrics.gauge t.m (Printf.sprintf "chan.%d.hwm" c.Graph.chan_id)
             with
             | None -> None
             | Some hwm ->
               Some
                 (Obs_json.Obj
                    [
                      ("id", Obs_json.Int c.Graph.chan_id);
                      ( "label",
                        Obs_json.Str
                          (Instrument.channel_label t.graph c.Graph.chan_id) );
                      ("capacity", Obs_json.Int c.Graph.capacity);
                      ("hwm", Obs_json.Int (int_of_float hwm));
                      ( "hwm_frac",
                        if c.Graph.capacity > 0 then
                          Obs_json.float (hwm /. float_of_int c.Graph.capacity)
                        else Obs_json.Null );
                    ]))
    in
    let bottleneck_json =
      match bottleneck t with
      | None -> Obs_json.Null
      | Some (kernel, blocked_s, chan, culprit) ->
        Obs_json.Obj
          [
            ("kernel", Obs_json.Str kernel.Graph.name);
            ("blocked_s", Obs_json.float blocked_s);
            ( "channel",
              match chan with
              | None -> Obs_json.Null
              | Some c -> Obs_json.Int c.Graph.chan_id );
            ( "channel_label",
              match chan with
              | None -> Obs_json.Null
              | Some c ->
                Obs_json.Str (Instrument.channel_label t.graph c.Graph.chan_id)
            );
            ( "culprit",
              match culprit with
              | None -> Obs_json.Null
              | Some n -> Obs_json.Str n.Graph.name );
          ]
    in
    Obs_json.Obj
      [
        ("duration_s", Obs_json.float t.duration_s);
        ( "period_s",
          match t.period_s with
          | None -> Obs_json.Null
          | Some p -> Obs_json.float p );
        ("deadline_misses", Obs_json.Int t.misses);
        ("kernels", Obs_json.List kernels);
        ("sinks", Obs_json.List sinks);
        ("channels", Obs_json.List channels);
        ("bottleneck", bottleneck_json);
      ]
end
