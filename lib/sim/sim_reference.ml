(* The original polling engine, kept as the reference implementation
   for the differential test against the event-driven engine in Sim.
   Queue-backed channels, full rescans to fixpoint after every event,
   fixed retry polls for blocked emitters. Its semantics are those of
   the seed engine run without placement or observers, the only way its
   callers run it. Do not optimise this module: its value is being the
   known-good semantics. *)

open Bp_util
module Graph = Bp_graph.Graph
module Spec = Bp_kernel.Spec
module Item = Bp_kernel.Item
module Behaviour = Bp_kernel.Behaviour
module Machine = Bp_machine.Machine
module Token = Bp_token.Token
module Rate = Bp_geometry.Rate

type chan_rt = {
  id : int;
  queue : Item.t Queue.t;
  capacity : int;
  mutable max_depth : int;
}

type node_rt = {
  node : Graph.node;
  behaviour : Behaviour.t;
  in_chans : (string * chan_rt) list;
  out_chans : (string * chan_rt list) list;
  mutable rt_fires : int;
  mutable rt_busy : float;
}

type proc_rt = {
  mutable busy_until : float;
  mutable cursor : int;
  mutable last_fired : int;
  kernels : node_rt array;
  mutable p_run : float;
  mutable p_read : float;
  mutable p_write : float;
  mutable p_fires : int;
}

type source_rt = {
  src : node_rt;
  period : float;
  mutable next_due : float;
  mutable stalls : int;
  mutable late : int;
  mutable max_late : float;
}

type event = Source_slot of source_rt | Const_emit of node_rt | Proc_free of int

let make_io (rt : node_rt) ~read_words ~write_words ~on_pop ~on_push =
  let find_in port =
    match List.assoc_opt port rt.in_chans with
    | Some c -> c
    | None -> Err.graphf "%s: no input channel %S" rt.node.Graph.name port
  in
  let find_outs port =
    match List.assoc_opt port rt.out_chans with
    | Some cs -> cs
    | None -> Err.graphf "%s: no output channel %S" rt.node.Graph.name port
  in
  {
    Behaviour.peek =
      (fun port ->
        let c = find_in port in
        if Queue.is_empty c.queue then None else Some (Queue.peek c.queue));
    pop =
      (fun port ->
        let c = find_in port in
        if Queue.is_empty c.queue then
          Err.graphf "%s: pop from empty input %S" rt.node.Graph.name port;
        let item = Queue.pop c.queue in
        read_words := !read_words + Item.words item;
        on_pop item;
        item);
    push =
      (fun port item ->
        on_push item;
        let cs = find_outs port in
        List.iter
          (fun c ->
            if Queue.length c.queue >= c.capacity then
              Err.graphf "%s: push to full channel on %S" rt.node.Graph.name
                port;
            Queue.push item c.queue;
            if Queue.length c.queue > c.max_depth then
              c.max_depth <- Queue.length c.queue;
            write_words := !write_words + Item.words item)
          cs);
    (* Allocation-naive data plane, on purpose: acquires are plain
       allocations and releases are dropped, preserving the seed engine's
       behavior exactly. The pooled engine is held bit-identical to this
       by the suite-wide differential. *)
    acquire = Bp_image.Image.create;
    release = (fun _ -> ());
    has_input = (fun port -> not (Queue.is_empty (find_in port).queue));
    space =
      (fun port ->
        match find_outs port with
        | [] -> max_int
        | cs ->
          List.fold_left
            (fun acc c -> min acc (c.capacity - Queue.length c.queue))
            max_int cs);
  }

(* The same runaway guards as {!Sim.run}'s defaults. *)
let max_time_s = 300.
let max_events = 50_000_000

let run ~graph:g ~mapping ~machine () =
  Graph.validate g;
  let pe = machine.Machine.pe in
  let chans = Hashtbl.create 64 in
  List.iter
    (fun (c : Graph.channel) ->
      Hashtbl.replace chans c.Graph.chan_id
        {
          id = c.Graph.chan_id;
          queue = Queue.create ();
          capacity = c.Graph.capacity;
          max_depth = 0;
        })
    (Graph.channels g);
  let chan_rt id = Hashtbl.find chans id in
  let sink_eof_times : (Graph.node_id, float list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let sink_first_data : (Graph.node_id, float) Hashtbl.t = Hashtbl.create 8 in
  (* Frame birth tags, as in Sim: per timed source, when each frame's
     first data item was emitted. *)
  let frame_births : (Graph.node_id, float list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let frame_pending : (Graph.node_id, bool ref) Hashtbl.t = Hashtbl.create 4 in
  let now = ref 0. in
  let node_rts = Hashtbl.create 64 in
  List.iter
    (fun (n : Graph.node) ->
      let in_chans =
        List.map
          (fun (c : Graph.channel) ->
            (c.Graph.dst.Graph.port, chan_rt c.Graph.chan_id))
          (Graph.in_channels g n.Graph.id)
      in
      let out_chans =
        List.map
          (fun (p : Bp_kernel.Port.t) ->
            ( p.Bp_kernel.Port.name,
              List.map
                (fun (c : Graph.channel) -> chan_rt c.Graph.chan_id)
                (Graph.out_channels g n.Graph.id ~port:p.Bp_kernel.Port.name ()) ))
          n.Graph.spec.Spec.outputs
      in
      let rt =
        {
          node = n;
          behaviour = n.Graph.spec.Spec.make_behaviour ();
          in_chans;
          out_chans;
          rt_fires = 0;
          rt_busy = 0.;
        }
      in
      if n.Graph.spec.Spec.role = Spec.Sink then
        Hashtbl.replace sink_eof_times n.Graph.id (ref []);
      if n.Graph.spec.Spec.role = Spec.Source then begin
        Hashtbl.replace frame_births n.Graph.id (ref []);
        Hashtbl.replace frame_pending n.Graph.id (ref true)
      end;
      Hashtbl.replace node_rts n.Graph.id rt)
    (Graph.nodes g);
  let node_rt id = Hashtbl.find node_rts id in
  let procs =
    Array.init (Mapping.processors mapping) (fun p ->
        {
          busy_until = 0.;
          cursor = 0;
          last_fired = -1;
          kernels =
            Array.of_list (List.map node_rt (Mapping.nodes_on mapping p));
          p_run = 0.;
          p_read = 0.;
          p_write = 0.;
          p_fires = 0;
        })
  in
  let events : event Heap.t = Heap.create ~dummy:(Proc_free (-1)) () in
  let step_node (rt : node_rt) =
    let read_words = ref 0 and write_words = ref 0 in
    let on_pop item =
      match (rt.node.Graph.spec.Spec.role, item) with
      | Spec.Sink, Item.Ctl tok when tok.Token.kind = Token.End_of_frame ->
        let times = Hashtbl.find sink_eof_times rt.node.Graph.id in
        times := !now :: !times
      | Spec.Sink, Item.Data _ ->
        if not (Hashtbl.mem sink_first_data rt.node.Graph.id) then
          Hashtbl.replace sink_first_data rt.node.Graph.id !now
      | _ -> ()
    in
    let on_push item =
      if rt.node.Graph.spec.Spec.role = Spec.Source then begin
        match item with
        | Item.Data _ ->
          let pending = Hashtbl.find frame_pending rt.node.Graph.id in
          if !pending then begin
            let births = Hashtbl.find frame_births rt.node.Graph.id in
            births := !now :: !births;
            pending := false
          end
        | Item.Ctl tok ->
          if tok.Token.kind = Token.End_of_frame then
            Hashtbl.find frame_pending rt.node.Graph.id := true
      end
    in
    let io = make_io rt ~read_words ~write_words ~on_pop ~on_push in
    match rt.behaviour.Behaviour.try_step io with
    | None -> None
    | Some fired ->
      let read_s = Machine.read_time_s pe ~words:!read_words in
      let write_s = Machine.write_time_s pe ~words:!write_words in
      let run_s = float_of_int fired.Behaviour.cycles *. Machine.cycle_time_s pe in
      rt.rt_fires <- rt.rt_fires + 1;
      Some (read_s, run_s, write_s)
  in
  let drain_sinks () =
    let progressed = ref true in
    while !progressed do
      progressed := false;
      List.iter
        (fun (n : Graph.node) ->
          let rt = node_rt n.Graph.id in
          match step_node rt with
          | Some _ -> progressed := true
          | None -> ())
        (Graph.sinks g)
    done
  in
  let try_dispatch p =
    let proc = procs.(p) in
    if proc.busy_until > !now +. 1e-15 then false
    else begin
      let k = Array.length proc.kernels in
      let rec attempt i =
        if i >= k then false
        else begin
          let idx = (proc.cursor + i) mod k in
          let rt = proc.kernels.(idx) in
          match step_node rt with
          | None -> attempt (i + 1)
          | Some (read_s, run_s, write_s) ->
            let run_s =
              if proc.last_fired >= 0 && proc.last_fired <> idx then
                run_s +. (pe.Machine.switch_cycles *. Machine.cycle_time_s pe)
              else run_s
            in
            proc.last_fired <- idx;
            let service = read_s +. run_s +. write_s in
            proc.busy_until <- !now +. service;
            proc.cursor <- (idx + 1) mod k;
            proc.p_run <- proc.p_run +. run_s;
            proc.p_read <- proc.p_read +. read_s;
            proc.p_write <- proc.p_write +. write_s;
            proc.p_fires <- proc.p_fires + 1;
            rt.rt_busy <- rt.rt_busy +. service;
            Heap.push events ~time:proc.busy_until (Proc_free p);
            true
        end
      in
      attempt 0
    end
  in
  let dispatch_all () =
    let progressed = ref true in
    while !progressed do
      progressed := false;
      drain_sinks ();
      Array.iteri
        (fun p _ -> if try_dispatch p then progressed := true)
        procs
    done;
    drain_sinks ()
  in
  List.iter
    (fun (n : Graph.node) ->
      Heap.push events ~time:0. (Const_emit (node_rt n.Graph.id)))
    (Graph.const_sources g);
  let source_rts =
    List.map
      (fun (n : Graph.node) ->
        let frame, rate =
          match n.Graph.meta with
          | Graph.Source_meta { frame; rate } -> (frame, rate)
          | _ -> Err.graphf "source %s lacks Source_meta" n.Graph.name
        in
        let period = Rate.element_period_s rate ~frame in
        let s =
          {
            src = node_rt n.Graph.id;
            period;
            next_due = 0.;
            stalls = 0;
            late = 0;
            max_late = 0.;
          }
        in
        Heap.push events ~time:0. (Source_slot s);
        s)
      (Graph.sources g)
  in
  let processed = ref 0 in
  let timed_out = ref false in
  let continue = ref true in
  while !continue do
    match Heap.pop events with
    | None -> continue := false
    | Some (time, ev) ->
      incr processed;
      if time > max_time_s || !processed > max_events then begin
        timed_out := true;
        continue := false
      end
      else begin
        now := max !now time;
        (match ev with
        | Proc_free _ -> ()
        | Const_emit rt -> (
          match step_node rt with
          | Some _ -> ()
          | None ->
            let has_space =
              List.for_all
                (fun (_, cs) ->
                  List.for_all
                    (fun c -> Queue.length c.queue < c.capacity)
                    cs)
                rt.out_chans
            in
            if not has_space then
              Heap.push events ~time:(!now +. 1e-6) (Const_emit rt))
        | Source_slot s -> (
          match step_node s.src with
          | Some _ ->
            let lateness = !now -. s.next_due in
            if lateness > 1e-12 then begin
              s.late <- s.late + 1;
              if lateness > s.max_late then s.max_late <- lateness
            end;
            s.next_due <- s.next_due +. s.period;
            Heap.push events ~time:(Float.max s.next_due !now) (Source_slot s)
          | None ->
            let blocked =
              List.exists
                (fun (_, cs) ->
                  List.exists
                    (fun c -> c.capacity - Queue.length c.queue < 3)
                    cs)
                s.src.out_chans
            in
            if blocked then begin
              s.stalls <- s.stalls + 1;
              Heap.push events ~time:(!now +. (s.period /. 4.)) (Source_slot s)
            end));
        dispatch_all ()
      end
  done;
  let leftover_items =
    Hashtbl.fold (fun _ c acc -> acc + Queue.length c.queue) chans 0
  in
  let leftover_channels =
    Hashtbl.fold
      (fun id c acc ->
        if Queue.is_empty c.queue then acc
        else (id, Queue.length c.queue, Queue.peek c.queue) :: acc)
      chans []
  in
  let proc_stats =
    Array.map
      (fun p ->
        {
          Sim.run_s = p.p_run;
          read_s = p.p_read;
          write_s = p.p_write;
          fires = p.p_fires;
        })
      procs
  in
  {
    Sim.duration_s = !now;
    procs = proc_stats;
    input_stalls = List.fold_left (fun a s -> a + s.stalls) 0 source_rts;
    late_emissions = List.fold_left (fun a s -> a + s.late) 0 source_rts;
    max_input_lateness_s =
      List.fold_left (fun a s -> Float.max a s.max_late) 0. source_rts;
    sink_eofs =
      Hashtbl.fold
        (fun id times acc -> (id, List.rev !times) :: acc)
        sink_eof_times [];
    sink_first_data =
      Hashtbl.fold (fun id t acc -> (id, t) :: acc) sink_first_data [];
    source_frame_births =
      Hashtbl.fold
        (fun id births acc -> (id, List.rev !births) :: acc)
        frame_births [];
    channel_depths =
      Hashtbl.fold (fun id c acc -> (id, c.max_depth) :: acc) chans [];
    leftover_channels;
    node_stats =
      Hashtbl.fold
        (fun id rt acc ->
          (id, { Sim.node_fires = rt.rt_fires; node_busy_s = rt.rt_busy })
          :: acc)
        node_rts [];
    leftover_items;
    events_processed = !processed;
    timed_out = !timed_out;
    pool = None;
    (* The reference engine is always fully event-driven. *)
    static_fired = 0;
    static_indexed_fired = 0;
    static_fallback_events = 0;
    static_elided_events = 0;
  }
