open Bp_util
module Graph = Bp_graph.Graph
module Spec = Bp_kernel.Spec
module Item = Bp_kernel.Item
module Behaviour = Bp_kernel.Behaviour
module Machine = Bp_machine.Machine
module Token = Bp_token.Token
module Size = Bp_geometry.Size
module Rate = Bp_geometry.Rate
module Image = Bp_image.Image
module Pool = Bp_image.Pool

type proc_stats = {
  run_s : float;
  read_s : float;
  write_s : float;
  fires : int;
}

type node_stats = { node_fires : int; node_busy_s : float }

type result = {
  duration_s : float;
  procs : proc_stats array;
  input_stalls : int;
  late_emissions : int;
  max_input_lateness_s : float;
  sink_eofs : (Graph.node_id * float list) list;
  sink_first_data : (Graph.node_id * float) list;
  source_frame_births : (Graph.node_id * float list) list;
  node_stats : (Graph.node_id * node_stats) list;
  channel_depths : (int * int) list;  (* channel id -> max occupancy *)
  leftover_channels : (int * int * Item.t) list;
  leftover_items : int;
  events_processed : int;
  timed_out : bool;
  pool : Pool.stats option;  (* chunk-pool counters; None from Sim_reference *)
  static_fired : int;  (* always 0; see sim.mli *)
  static_indexed_fired : int;  (* always 0; see sim.mli *)
  static_fallback_events : int;  (* always 0; see sim.mli *)
  static_elided_events : int;  (* provably-declining wakes never dispatched *)
}

type placement_model = {
  tile_of_proc : int -> int * int;
  hop_cycles_per_word : float;
}

type channel_event = Ch_push | Ch_pop | Ch_block

type kernel_state = Ks_busy | Ks_blocked_input | Ks_blocked_output | Ks_idle

let kernel_state_name = function
  | Ks_busy -> "busy"
  | Ks_blocked_input -> "blocked-on-input"
  | Ks_blocked_output -> "blocked-on-output"
  | Ks_idle -> "idle"

(* ---- runtime structures ----------------------------------------------

   The engine is event-driven: instead of rescanning every processor to a
   fixpoint after each event (the original engine, preserved in
   {!Sim_reference}), each channel knows the two parties it connects, and
   a push, pop, or processor-release marks exactly the parties whose
   readiness it may have changed. Every [try_step] is failure-pure — a
   declined firing mutates nothing — so a processor whose kernels saw no
   adjacent-channel change since their last declined attempt would
   deterministically decline again; skipping it is exact, not an
   approximation. The equivalence is held down by the suite-wide
   differential test against {!Sim_reference}.

   Allocation discipline: hot mutable floats live in [float array]
   side-state ([rt_f], [t_f], the per-proc arrays inside [run]) rather
   than in mutable record fields, because without flambda a store to a
   mutable float field of a mixed record boxes the float — at one or more
   stores per event that was a measurable slice of the very minor-GC
   pressure this engine exists to avoid (docs/PERFORMANCE.md). *)

type chan_rt = {
  id : int;
  ring : Item.t Ring.t;
  mutable hops : int;  (* mesh distance between producer and consumer *)
  mutable max_depth : int;
  mutable producer : party;  (* woken by Ch_pop: space freed *)
  mutable consumer : party;  (* woken by Ch_push: data available *)
}

(* Who reacts when a channel changes. Wired after construction, because
   channels and node runtimes refer to each other. *)
and party =
  | P_none
  | P_proc of int  (* an on-chip kernel: mark its processor ready *)
  | P_sink of node_rt  (* an off-chip sink: queue it for draining *)
  | P_emit of emitter_rt  (* a self-driven emitter: retry if blocked *)

and node_rt = {
  node : Graph.node;
  behaviour : Behaviour.t;
  in_chans : (string * chan_rt) array;  (* bound once at setup *)
  out_chans : (string * chan_rt array) array;
  proc : int option;
  mutable io : Behaviour.io;  (* built once; counters reset per firing *)
  mutable cw_read : int;  (* words read by the current firing *)
  mutable cw_write : int;
  mutable cw_hop : int;
  mutable cw_full_out : int;  (* full output channel the attempt saw, or -1 *)
  mutable s_marked : bool;  (* sinks only: queued for draining *)
  mutable s_first_seen : bool;  (* sinks only: first data chunk recorded *)
  mutable rt_fires : int;
  rt_f : float array;  (* 0 = total busy seconds; 1 = current busy end *)
  mutable ks_state : kernel_state;  (* as of the last dispatch examination *)
  mutable fb_pending : bool;  (* sources only: next Data push starts a frame *)
}

and emitter_rt = {
  em : node_rt;
  em_burst : int;  (* Spec.emission_burst: space one firing may need *)
  em_kind : em_kind;
  mutable em_event : event;  (* interned; re-pushed on every (re)schedule *)
  mutable em_blocked : bool;  (* waiting for space; woken by Ch_pop *)
  mutable em_woken : bool;
}

and em_kind = Em_const | Em_timed of timed_rt

and timed_rt = {
  period : float;
  t_f : float array;  (* 0 = next due time; 1 = max lateness *)
  mutable stalls : int;
  mutable late : int;
}

and event = Source_slot of emitter_rt | Const_emit of emitter_rt
          | Proc_free of int

type proc_rt = {
  mutable cursor : int;  (* round-robin position among its kernels *)
  mutable last_fired : int;  (* kernel index of the previous firing *)
  kernels : node_rt array;
  mutable ready : bool;  (* marked for the next dispatch sweep *)
  mutable p_fires : int;
  (* Lazy processor-free wake (quasi-static mode): when every kernel on
     the processor is provably starved at fire time, the [Proc_free]
     event is not pushed; its heap sequence number is reserved here so a
     later restore lands in the exact order the eager push would have. *)
  mutable pf_scheduled : bool;
  mutable pf_seq : int;
}

(* Channel rings hold plain [Item.t]; popped slots are overwritten with
   this throwaway control item so the ring never pins live pixel data. *)
let dummy_item = Item.ctl (Token.eof (-1))


let find_port what (rt : node_rt) (a : (string * 'a) array) port =
  let n = Array.length a in
  let rec go i =
    if i >= n then
      Err.graphf "%s: no %s channel %S" rt.node.Graph.name what port
    else
      let name, c = a.(i) in
      if String.equal name port then c else go (i + 1)
  in
  go 0

(* ---- main engine ------------------------------------------------------ *)

let run ?(max_time_s = 300.) ?(max_events = 50_000_000) ?chunk_pool
    ?placement ?observer ?channel_observer ?state_observer
    ?(elide = true) ~graph:g ~mapping ~machine () =
  Graph.validate g;
  let pe = machine.Machine.pe in
  (* Quasi-static mode (wake elision): active only when [elide] is on AND
     no observer is installed. The elided examinations are exactly ones
     that would decline (the [starved] oracle contract), so simulated
     outcomes are bit-identical — but observers report *examinations*
     (state intervals, per-attempt block events), which elision would
     thin out. With any observer present the engine stays fully
     event-driven. *)
  let static_mode =
    elide
    && (not (Option.is_some observer))
    && (not (Option.is_some channel_observer))
    && not (Option.is_some state_observer)
  in
  (* Current simulated time, in a one-slot float array so stores stay
     unboxed (a [float ref] boxes on every [:=] without flambda). *)
  let now = [| 0. |] in
  (* Channels: preallocated rings, indexed by a plain array over a dense
     remap of channel ids (graph ids are small ints but need not be
     contiguous after transforms). *)
  let graph_chans = Graph.channels g in
  let chan_tbl = Hashtbl.create 64 in
  List.iter
    (fun (c : Graph.channel) ->
      Hashtbl.replace chan_tbl c.Graph.chan_id
        {
          id = c.Graph.chan_id;
          ring = Ring.create ~capacity:c.Graph.capacity ~dummy:dummy_item;
          hops = 0;
          max_depth = 0;
          producer = P_none;
          consumer = P_none;
        })
    graph_chans;
  let chan_rt id = Hashtbl.find chan_tbl id in
  let all_chans =
    (* Deterministic order for the result lists. *)
    List.map (fun (c : Graph.channel) -> chan_rt c.Graph.chan_id)
      (List.sort
         (fun (a : Graph.channel) b -> compare a.Graph.chan_id b.Graph.chan_id)
         graph_chans)
  in
  (* Node runtimes, with port->channel bindings resolved once. *)
  let sink_eof_times : (Graph.node_id, float list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let sink_first_data : (Graph.node_id, float) Hashtbl.t = Hashtbl.create 8 in
  (* Per timed source, the emission time of each frame's first data item
     (newest first) — the birth tags sinks' per-frame latency is measured
     against. *)
  let frame_births : (Graph.node_id, float list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  (* One pool for the whole run. Every chunk a behaviour acquires or pops
     and does not push onward comes back here, so steady state recycles a
     fixed working set instead of allocating. [?chunk_pool] lends an
     existing pool instead — the per-domain reuse path of
     docs/PARALLELISM.md: a sweep worker keeps its free lists warm across
     runs, and this run's [result.pool] reports the deltas it
     contributed. Acquired buffers are zeroed either way, so the
     simulated outcome never depends on the choice. *)
  let pool_before = Option.map Pool.stats chunk_pool in
  let chunk_pool =
    match chunk_pool with Some p -> p | None -> Pool.create ()
  in
  let acquire_chunk s = Pool.acquire chunk_pool s in
  let release_chunk img = Pool.release chunk_pool img in
  let dummy_io =
    let fail _ = assert false in
    { Behaviour.peek = fail; pop = fail; push = (fun _ _ -> assert false);
      space = fail; acquire = fail; release = (fun _ -> assert false);
      has_input = fail }
  in
  let node_rts = Hashtbl.create 64 in
  List.iter
    (fun (n : Graph.node) ->
      let in_chans =
        Array.of_list
          (List.map
             (fun (c : Graph.channel) ->
               (c.Graph.dst.Graph.port, chan_rt c.Graph.chan_id))
             (Graph.in_channels g n.Graph.id))
      in
      let out_chans =
        Array.of_list
          (List.map
             (fun (p : Bp_kernel.Port.t) ->
               ( p.Bp_kernel.Port.name,
                 Array.of_list
                   (List.map
                      (fun (c : Graph.channel) -> chan_rt c.Graph.chan_id)
                      (Graph.out_channels g n.Graph.id
                         ~port:p.Bp_kernel.Port.name ())) ))
             n.Graph.spec.Spec.outputs)
      in
      let rt =
        {
          node = n;
          behaviour = n.Graph.spec.Spec.make_behaviour ();
          in_chans;
          out_chans;
          proc = Mapping.processor_of mapping n.Graph.id;
          io = dummy_io;
          cw_read = 0;
          cw_write = 0;
          cw_hop = 0;
          cw_full_out = -1;
          s_marked = false;
          s_first_seen = false;
          rt_fires = 0;
          rt_f = [| 0.; 0. |];
          ks_state = Ks_idle;
          fb_pending = true;
        }
      in
      if n.Graph.spec.Spec.role = Spec.Sink then
        Hashtbl.replace sink_eof_times n.Graph.id (ref []);
      if n.Graph.spec.Spec.role = Spec.Source then
        Hashtbl.replace frame_births n.Graph.id (ref []);
      Hashtbl.replace node_rts n.Graph.id rt)
    (Graph.nodes g);
  let node_rt id = Hashtbl.find node_rts id in
  (* Network distances, when a placement is supplied: off-chip endpoints
     (sources, sinks) sit at the mesh edge, tile (0,0). *)
  (match placement with
  | None -> ()
  | Some p ->
    let tile id =
      match Mapping.processor_of mapping id with
      | Some proc -> p.tile_of_proc proc
      | None -> (0, 0)
    in
    List.iter
      (fun (c : Graph.channel) ->
        let x0, y0 = tile c.Graph.src.Graph.node in
        let x1, y1 = tile c.Graph.dst.Graph.node in
        (chan_rt c.Graph.chan_id).hops <- abs (x0 - x1) + abs (y0 - y1))
      graph_chans);
  (* Processors: a record for the int/array state, parallel float arrays
     for the accumulated times (field stores would box). *)
  let nprocs = Mapping.processors mapping in
  let procs =
    Array.init nprocs (fun p ->
        {
          cursor = 0;
          last_fired = -1;
          kernels =
            Array.of_list (List.map node_rt (Mapping.nodes_on mapping p));
          ready = true;  (* every processor gets one initial scan *)
          p_fires = 0;
          pf_scheduled = true;  (* nothing elided yet *)
          pf_seq = 0;
        })
  in
  let p_busy_until = Array.make nprocs 0. in
  let p_run = Array.make nprocs 0. in
  let p_read = Array.make nprocs 0. in
  let p_write = Array.make nprocs 0. in
  (* Interned events: each party's wake event is allocated once and
     re-pushed, not rebuilt per scheduling. *)
  let proc_free = Array.init nprocs (fun p -> Proc_free p) in
  (* Emitters: sources and constant sources drive themselves off the
     event queue rather than a processor. *)
  let emitter_tbl : (Graph.node_id, emitter_rt) Hashtbl.t = Hashtbl.create 8 in
  let emitters = ref [] in
  let add_emitter (n : Graph.node) kind =
    let e =
      {
        em = node_rt n.Graph.id;
        em_burst = n.Graph.spec.Spec.emission_burst;
        em_kind = kind;
        em_event = Proc_free (-1);
        em_blocked = false;
        em_woken = false;
      }
    in
    e.em_event <-
      (match kind with Em_const -> Const_emit e | Em_timed _ -> Source_slot e);
    Hashtbl.replace emitter_tbl n.Graph.id e;
    emitters := e :: !emitters;
    e
  in
  let sinks =
    Array.of_list
      (List.map
         (fun (n : Graph.node) ->
           let rt = node_rt n.Graph.id in
           rt.s_marked <- true;  (* one initial drain *)
           rt)
         (Graph.sinks g))
  in
  let events : event Heap.t = Heap.create ~dummy:(Proc_free (-1)) () in
  (* Constant sources emit before the first source slot so configuration
     data (coefficients, bin bounds) is in place when pixel 0 arrives. *)
  List.iter
    (fun (n : Graph.node) ->
      Heap.push events ~time:0. (add_emitter n Em_const).em_event)
    (Graph.const_sources g);
  let timed_srcs =
    List.map
      (fun (n : Graph.node) ->
        let frame, rate =
          match n.Graph.meta with
          | Graph.Source_meta { frame; rate } -> (frame, rate)
          | _ -> Err.graphf "source %s lacks Source_meta" n.Graph.name
        in
        let period = Rate.element_period_s rate ~frame in
        let t = { period; t_f = [| 0.; 0. |]; stalls = 0; late = 0 } in
        Heap.push events ~time:0. (add_emitter n (Em_timed t)).em_event;
        t)
      (Graph.sources g)
  in
  (* Wire each channel to the parties its changes can unblock. *)
  List.iter
    (fun (c : Graph.channel) ->
      let rt = chan_rt c.Graph.chan_id in
      let src = node_rt c.Graph.src.Graph.node in
      rt.producer <-
        (match Hashtbl.find_opt emitter_tbl c.Graph.src.Graph.node with
        | Some e -> P_emit e
        | None -> (
          match src.proc with Some p -> P_proc p | None -> P_none));
      let dst = node_rt c.Graph.dst.Graph.node in
      rt.consumer <-
        (if dst.node.Graph.spec.Spec.role = Spec.Sink then P_sink dst
         else
           match dst.proc with Some p -> P_proc p | None -> P_none))
    graph_chans;
  (* Every kernel of a processor provably declining right now? Then its
     post-service examination would fire nothing, and the [Proc_free]
     wake can be elided (restored by the first adjacent channel change
     that breaks the proof — see [wake_proc]). The proof is each
     kernel's own [starved] oracle, read against its io at call time.
     The test is specialized per processor at startup: the common
     one-kernel mapping collapses to a single call, and a processor with
     any oracle-less kernel is never provably declining. *)
  let p_all_starved =
    Array.map
      (fun proc ->
        let rec collect i acc =
          if i < 0 then Some acc
          else
            let rt = proc.kernels.(i) in
            match rt.behaviour.Behaviour.starved with
            | Some st -> collect (i - 1) ((fun () -> st rt.io) :: acc)
            | None -> None
        in
        match collect (Array.length proc.kernels - 1) [] with
        | None -> fun () -> false
        | Some [ f ] -> f
        | Some fs ->
          let fs = Array.of_list fs in
          let n = Array.length fs in
          fun () ->
            let rec go i = i >= n || (fs.(i) () && go (i + 1)) in
            go 0)
      procs
  in
  (* Ready-set marking. In quasi-static mode a mark that lands on a busy
     processor whose end-of-service wake was elided re-proves the elision
     with the same per-processor decline proof the firing site used:
     while every kernel still provably declines the wake stays elided,
     and the first change that breaks the proof restores the wake at the
     exact time (and reserved heap rank) the eager engine would have
     used. [static_elided] counts wakes that stay elided for good: each
     is exactly one eager-engine event that would have been dispatched
     and declined, so [!processed + !static_elided] equals the eager
     engine's event count. *)
  let static_elided = ref 0 in
  let wake_proc p =
    let proc = procs.(p) in
    if
      (not proc.pf_scheduled)
      && p_busy_until.(p) > now.(0) +. 1e-15
      && not (p_all_starved.(p) ())
    then begin
      proc.pf_scheduled <- true;
      decr static_elided;
      Heap.push_seq events ~time:p_busy_until.(p) ~seq:proc.pf_seq
        proc_free.(p)
    end
  in
  let mark_producer (c : chan_rt) =
    match c.producer with
    | P_proc p ->
      procs.(p).ready <- true;
      if static_mode then wake_proc p
    | P_emit e -> if e.em_blocked then e.em_woken <- true
    | P_sink _ | P_none -> ()
  in
  let mark_consumer (c : chan_rt) =
    match c.consumer with
    | P_proc p ->
      procs.(p).ready <- true;
      if static_mode then wake_proc p
    | P_sink s -> s.s_marked <- true
    | P_emit _ | P_none -> ()
  in
  (* Observability is pay-when-used: with no observer installed, the
     firing path must not even box the float arguments a callback would
     take, so every notification is behind an [Option] match (and the
     state machinery behind [state_observing]). *)
  let chan_observing = Option.is_some channel_observer in
  let state_observing = Option.is_some state_observer in
  let on_chan (rt : node_rt) (c : chan_rt) ev =
    match channel_observer with
    | None -> ()
    | Some f ->
      f ~time_s:now.(0) ~chan_id:c.id ~node:rt.node ~proc:rt.proc ~event:ev
        ~depth:(Ring.length c.ring)
  in
  (* Per-node IO, built exactly once; the word counters live on the node
     and are reset before each attempt. *)
  let hop_cycles_per_word =
    match placement with
    | Some p -> p.hop_cycles_per_word
    | None -> 0.
  in
  let build_io (rt : node_rt) =
    (* Role tests hoisted out of the per-item path: a polymorphic [=] on
       the role variant per push/pop walks the generic comparator. *)
    let is_sink =
      match rt.node.Graph.spec.Spec.role with Spec.Sink -> true | _ -> false
    in
    let is_source =
      match rt.node.Graph.spec.Spec.role with
      | Spec.Source -> true
      | _ -> false
    in
    {
      Behaviour.peek =
        (fun port ->
          let c = find_port "input" rt rt.in_chans port in
          if Ring.is_empty c.ring then None else Some (Ring.peek c.ring));
      pop =
        (fun port ->
          let c = find_port "input" rt rt.in_chans port in
          if Ring.is_empty c.ring then
            Err.graphf "%s: pop from empty input %S" rt.node.Graph.name port;
          let item = Ring.pop c.ring in
          rt.cw_read <- rt.cw_read + Item.words item;
          if is_sink then begin
            match item with
            | Item.Ctl { Token.kind = Token.End_of_frame; _ } ->
              let times = Hashtbl.find sink_eof_times rt.node.Graph.id in
              times := now.(0) :: !times
            | Item.Data _ ->
              if not rt.s_first_seen then begin
                rt.s_first_seen <- true;
                Hashtbl.replace sink_first_data rt.node.Graph.id now.(0)
              end
            | _ -> ()
          end;
          if chan_observing then on_chan rt c Ch_pop;
          mark_producer c;
          item);
      push =
        (fun port item ->
          (* Frame tagging: a timed source's first data push after start or
             after an end-of-frame token is the birth of the next frame. *)
          if is_source then begin
            match item with
            | Item.Data _ ->
              if rt.fb_pending then begin
                let births = Hashtbl.find frame_births rt.node.Graph.id in
                births := now.(0) :: !births;
                rt.fb_pending <- false
              end
            | Item.Ctl { Token.kind = Token.End_of_frame; _ } ->
              rt.fb_pending <- true
            | Item.Ctl _ -> ()
          end;
          let cs = find_port "output" rt rt.out_chans port in
          for i = 0 to Array.length cs - 1 do
            let c = cs.(i) in
            if Ring.is_full c.ring then
              Err.graphf "%s: push to full channel on %S" rt.node.Graph.name
                port;
            (* Fan-out: each channel's consumer will own (and eventually
               release) its chunk, so channels beyond the first receive
               pool-backed copies — sharing one physical buffer would let
               it re-enter the pool twice. *)
            let item =
              if i = 0 then item
              else
                match item with
                | Item.Data img ->
                  let d = acquire_chunk (Image.size img) in
                  Image.blit ~src:img ~dst:d ~x:0 ~y:0;
                  Item.data d
                | Item.Ctl _ -> item
            in
            Ring.push c.ring item;
            let depth = Ring.length c.ring in
            if depth > c.max_depth then c.max_depth <- depth;
            rt.cw_write <- rt.cw_write + Item.words item;
            rt.cw_hop <- rt.cw_hop + (c.hops * Item.words item);
            if chan_observing then on_chan rt c Ch_push;
            mark_consumer c
          done);
      acquire = acquire_chunk;
      release = release_chunk;
      has_input =
        (fun port ->
          not (Ring.is_empty (find_port "input" rt rt.in_chans port).ring));
      space =
        (fun port ->
          let cs = find_port "output" rt rt.out_chans port in
          let n = Array.length cs in
          if n = 0 then max_int
          else begin
            (* Local, non-escaping ref: compiled to a register. *)
            let acc = ref max_int in
            for i = 0 to n - 1 do
              let c = cs.(i) in
              let free = Ring.space c.ring in
              if free <= 0 then begin
                rt.cw_full_out <- c.id;
                if chan_observing then on_chan rt c Ch_block
              end;
              if free < !acc then acc := free
            done;
            !acc
          end);
    }
  in
  Hashtbl.iter (fun _ rt -> rt.io <- build_io rt) node_rts;
  (* One step of a node: the one way any node fires. Service-time
     pricing happens at the dispatch site — the only caller that needs
     it — from the [cw_*] word counters; a sink or emitter firing prices
     nothing, and a step returns the behaviour's interned [fired] with no
     wrapper. *)
  let step_node (rt : node_rt) =
    rt.cw_read <- 0;
    rt.cw_write <- 0;
    rt.cw_hop <- 0;
    rt.cw_full_out <- -1;
    match rt.behaviour.Behaviour.try_step rt.io with
    | None -> None
    | Some _ as fired ->
      rt.rt_fires <- rt.rt_fires + 1;
      fired
  in
  (* Shared progress flag for the dispatch fixpoint, hoisted so the loop
     helpers below close over one ref for the whole run instead of
     threading a fresh one per event. *)
  let progress = ref false in
  (* Marked sinks drain instantly (off-chip), to personal exhaustion;
     sinks never push, so they cannot re-enable each other and one pass
     reaches the same fixpoint as the reference engine's rescan. *)
  let rec drain_sink srt =
    match step_node srt with
    | Some _ ->
      progress := true;
      drain_sink srt
    | None -> ()
  in
  let drain_ready_sinks () =
    for i = 0 to Array.length sinks - 1 do
      let srt = sinks.(i) in
      if srt.s_marked then begin
        srt.s_marked <- false;
        drain_sink srt
      end
    done
  in
  (* A successful timed emission: lateness bookkeeping and the next slot. *)
  let fire_timed (t : timed_rt) e =
    let lateness = now.(0) -. t.t_f.(0) in
    if lateness > 1e-12 then begin
      t.late <- t.late + 1;
      if lateness > t.t_f.(1) then t.t_f.(1) <- lateness
    end;
    t.t_f.(0) <- t.t_f.(0) +. t.period;
    let due = t.t_f.(0) in
    Heap.push events
      ~time:(if due >= now.(0) then due else now.(0))
      e.em_event
  in
  (* An emitter that declined is blocked exactly when some output channel
     lacks space for its declared worst-case burst; otherwise it is
     exhausted and never retried. *)
  let emitter_blocked e =
    let ocs = e.em.out_chans in
    let blocked = ref false in
    for i = 0 to Array.length ocs - 1 do
      let _, cs = ocs.(i) in
      for j = 0 to Array.length cs - 1 do
        if Ring.space cs.(j).ring < e.em_burst then blocked := true
      done
    done;
    !blocked
  in
  (* A pop freed space on a blocked emitter's channel: retry right now
     (precise wake, replacing the reference engine's fixed retry polls). *)
  let rec retry_emitters = function
    | [] -> ()
    | e :: rest ->
      if e.em_woken then begin
        e.em_woken <- false;
        if e.em_blocked then
          match step_node e.em with
          | Some _ ->
            e.em_blocked <- false;
            progress := true;
            (match e.em_kind with
            | Em_timed t -> fire_timed t e
            | Em_const -> ())
          | None -> if not (emitter_blocked e) then e.em_blocked <- false
      end;
      retry_emitters rest
  in
  (* ---- kernel state intervals ----------------------------------------
     Each on-chip kernel carries a state (busy / blocked-on-input /
     blocked-on-output / idle) that changes only when the dispatcher
     learns something: an attempt that declines is classified by what the
     attempt observed (a full output channel, or wanting input), a firing
     enters busy, and a busy interval ends exactly at its known service
     end. Between examinations nothing adjacent changed (try_step is
     failure-pure), so holding the last classification is exact, not
     sampled. [state_observer] is invoked once per entered state with the
     entry time; by construction the emitted intervals partition
     [0, duration] for every kernel (asserted in test/test_obs.ml). The
     whole mechanism is skipped when no [state_observer] is installed. *)
  let emit_state (rt : node_rt) proc st chan time_s =
    match state_observer with
    | None -> ()
    | Some f -> f ~time_s ~node:rt.node ~proc ~state:st ~chan
  in
  let set_state (rt : node_rt) proc st chan =
    (* A busy interval whose end passed unexamined closes into idle at the
       exact service end, not at the moment we finally looked. *)
    if rt.ks_state = Ks_busy && now.(0) > rt.rt_f.(1) +. 1e-15 then begin
      emit_state rt proc Ks_idle None rt.rt_f.(1);
      rt.ks_state <- Ks_idle
    end;
    if st <> rt.ks_state then begin
      emit_state rt proc st chan now.(0);
      rt.ks_state <- st
    end
  in
  let first_empty_input (rt : node_rt) =
    let n = Array.length rt.in_chans in
    let rec go i =
      if i >= n then None
      else
        let _, c = rt.in_chans.(i) in
        if Ring.is_empty c.ring then Some c.id else go (i + 1)
    in
    go 0
  in
  (* Try to start one firing on an idle processor. The service prices
     below reproduce [Machine.read_time_s], [write_time_s] and
     [cycle_time_s] operation for operation: the arithmetic must stay
     bit-identical to the reference engine, which still calls through
     [Machine] (inlining it here avoids the boxed float each of those
     cross-module calls returns without flambda). *)
  let rec attempt_kernel proc p k i =
    if i >= k then false
    else begin
      let idx = (proc.cursor + i) mod k in
      let rt = proc.kernels.(idx) in
      match step_node rt with
      | None ->
        if state_observing then
          if rt.cw_full_out >= 0 then
            set_state rt p Ks_blocked_output (Some rt.cw_full_out)
          else set_state rt p Ks_blocked_input (first_empty_input rt);
        attempt_kernel proc p k (i + 1)
      | Some fired ->
        let read_s =
          float_of_int rt.cw_read *. pe.Machine.read_cycles_per_word
          /. pe.Machine.freq_hz
        in
        let write_s =
          float_of_int rt.cw_write *. pe.Machine.write_cycles_per_word
          /. pe.Machine.freq_hz
          +. (float_of_int rt.cw_hop *. hop_cycles_per_word
             /. pe.Machine.freq_hz)
        in
        let run_s =
          float_of_int fired.Behaviour.cycles *. (1. /. pe.Machine.freq_hz)
        in
        (* Context-switch charge when a multiplexed PE changes kernel. *)
        let run_s =
          if proc.last_fired >= 0 && proc.last_fired <> idx then
            run_s +. (pe.Machine.switch_cycles *. (1. /. pe.Machine.freq_hz))
          else run_s
        in
        proc.last_fired <- idx;
        let service = read_s +. run_s +. write_s in
        if state_observing then begin
          set_state rt p Ks_busy None;
          rt.rt_f.(1) <- now.(0) +. service
        end;
        (match observer with
        | None -> ()
        | Some f ->
          f ~time_s:now.(0) ~proc:p ~node:rt.node
            ~method_name:fired.Behaviour.method_name ~service_s:service);
        p_busy_until.(p) <- now.(0) +. service;
        proc.cursor <- (idx + 1) mod k;
        p_run.(p) <- p_run.(p) +. run_s;
        p_read.(p) <- p_read.(p) +. read_s;
        p_write.(p) <- p_write.(p) +. write_s;
        proc.p_fires <- proc.p_fires + 1;
        rt.rt_f.(0) <- rt.rt_f.(0) +. service;
        if static_mode then begin
          (* The wake's tie-breaking rank is reserved even when the event
             is elided, so a restored wake collides with other same-time
             events in exactly the eager engine's order. *)
          let seq = Heap.reserve_seq events in
          if p_all_starved.(p) () then begin
            proc.pf_scheduled <- false;
            proc.pf_seq <- seq;
            incr static_elided
          end
          else begin
            proc.pf_scheduled <- true;
            Heap.push_seq events ~time:p_busy_until.(p) ~seq proc_free.(p)
          end
        end
        else Heap.push events ~time:p_busy_until.(p) proc_free.(p);
        true
    end
  in
  let try_dispatch p =
    if p_busy_until.(p) > now.(0) +. 1e-15 then false
    else begin
      let proc = procs.(p) in
      attempt_kernel proc p (Array.length proc.kernels) 0
    end
  in
  (* The dispatch loop: only marked parties are attempted. Processors are
     swept in ascending index so marks set mid-sweep by a firing are seen
     by later indices within the round, exactly as the reference engine's
     full rescan sees them; anything marked at an earlier index waits for
     the next round, as it would wait for the rescan's next round. *)
  let dispatch () =
    progress := true;
    while !progress do
      progress := false;
      drain_ready_sinks ();
      retry_emitters !emitters;
      for p = 0 to nprocs - 1 do
        let proc = procs.(p) in
        if proc.ready then begin
          proc.ready <- false;
          if try_dispatch p then progress := true
        end
      done
    done
  in
  (* Advancing simulated time is itself a readiness change: processors
     whose busy interval ends inside (old now, new time] become idle
     without any channel traffic, so mark them before handling the event
     (their own [Proc_free] may still sit behind this event in the queue
     when service times collide exactly). *)
  let advance time =
    if time > now.(0) then begin
      for p = 0 to nprocs - 1 do
        if
          p_busy_until.(p) > now.(0) +. 1e-15
          && p_busy_until.(p) <= time +. 1e-15
        then procs.(p).ready <- true
      done;
      now.(0) <- time
    end
  in
  (* Main loop. The front time is read before the pop so a discarded
     over-limit event never disturbs the queue, and neither step
     allocates (see {!Heap}). *)
  let processed = ref 0 in
  let timed_out = ref false in
  let continue = ref true in
  while !continue do
    if Heap.is_empty events then continue := false
    else begin
      let time = Heap.front_time_exn events in
      incr processed;
      if time > max_time_s || !processed > max_events then begin
        timed_out := true;
        continue := false
      end
      else begin
        let ev = Heap.pop_value_exn events in
        advance time;
        (match ev with
        | Proc_free p -> procs.(p).ready <- true
        | Const_emit e -> (
          match step_node e.em with
          | Some _ -> ()
          | None ->
            (* A const source that already emitted returns None forever;
               only a space-starved one waits for a wake. *)
            if emitter_blocked e then e.em_blocked <- true)
        | Source_slot e -> (
          match step_node e.em with
          | Some _ -> (
            match e.em_kind with
            | Em_timed t -> fire_timed t e
            | Em_const -> assert false)
          | None ->
            (* Distinguish an exhausted source (no more frames: every
               output has burst room yet nothing was emitted) from a
               blocked one. A blocked source counts one stall for the
               missed slot and then waits for space — no retry polling;
               the wake fires the pixel at the first instant it fits. *)
            if emitter_blocked e then begin
              (match e.em_kind with
              | Em_timed t -> t.stalls <- t.stalls + 1
              | Em_const -> ());
              e.em_blocked <- true
            end));
        dispatch ()
      end
    end
  done;
  (* Quasi-static quiescence: the last events of an eager run are the
     trailing [Proc_free]s, whose times set [duration_s]. When those were
     elided, restore the clock to the latest busy end so the reported
     duration is bit-identical to the eager engine's. *)
  if static_mode && not !timed_out then
    for p = 0 to nprocs - 1 do
      if p_busy_until.(p) > now.(0) then now.(0) <- p_busy_until.(p)
    done;
  (* Close out busy intervals whose service end passed without another
     examination, so every kernel's intervals reach a settled state. *)
  if state_observing then
    Hashtbl.iter
      (fun _ rt ->
        match rt.proc with
        | Some p ->
          if rt.ks_state = Ks_busy && now.(0) > rt.rt_f.(1) +. 1e-15 then begin
            emit_state rt p Ks_idle None rt.rt_f.(1);
            rt.ks_state <- Ks_idle
          end
        | None -> ())
      node_rts;
  let leftover_items =
    List.fold_left (fun acc c -> acc + Ring.length c.ring) 0 all_chans
  in
  let leftover_channels =
    List.filter_map
      (fun c ->
        if Ring.is_empty c.ring then None
        else Some (c.id, Ring.length c.ring, Ring.peek c.ring))
      all_chans
  in
  let proc_stats =
    Array.mapi
      (fun i p ->
        {
          run_s = p_run.(i);
          read_s = p_read.(i);
          write_s = p_write.(i);
          fires = p.p_fires;
        })
      procs
  in
  {
    duration_s = now.(0);
    procs = proc_stats;
    input_stalls = List.fold_left (fun a t -> a + t.stalls) 0 timed_srcs;
    late_emissions = List.fold_left (fun a t -> a + t.late) 0 timed_srcs;
    max_input_lateness_s =
      List.fold_left (fun a t -> Float.max a t.t_f.(1)) 0. timed_srcs;
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
    channel_depths = List.map (fun c -> (c.id, c.max_depth)) all_chans;
    leftover_channels;
    node_stats =
      Hashtbl.fold
        (fun id rt acc ->
          (id, { node_fires = rt.rt_fires; node_busy_s = rt.rt_f.(0) }) :: acc)
        node_rts [];
    leftover_items;
    (* Elided wakes count as processed: each is one eager-engine decline
       skipped wholesale, so the total matches event-driven mode exactly
       and throughput normalizes without a second run. *)
    events_processed = !processed + !static_elided;
    timed_out = !timed_out;
    static_fired = 0;
    static_indexed_fired = 0;
    static_fallback_events = 0;
    static_elided_events = !static_elided;
    pool =
      (let s = Pool.stats chunk_pool in
       match pool_before with
       | None -> Some s
       | Some b ->
         (* Lent pool: report only this run's contribution. *)
         Some
           {
             Pool.hits = s.Pool.hits - b.Pool.hits;
             misses = s.Pool.misses - b.Pool.misses;
             releases = s.Pool.releases - b.Pool.releases;
             live = s.Pool.live - b.Pool.live;
           });
  }

let first_output_latency_s r =
  match r.sink_first_data with
  | [] -> None
  | l -> Some (List.fold_left (fun acc (_, t) -> Float.min acc t) infinity l)

let utilization r ~proc =
  if r.duration_s <= 0. then 0.
  else
    let p = r.procs.(proc) in
    (p.run_s +. p.read_s +. p.write_s) /. r.duration_s

let average_utilization r =
  if Array.length r.procs = 0 then 0.
  else
    Array.fold_left ( +. ) 0.
      (Array.mapi (fun i _ -> utilization r ~proc:i) r.procs)
    /. float_of_int (Array.length r.procs)

let utilization_breakdown r =
  let total = float_of_int (Array.length r.procs) *. r.duration_s in
  if total <= 0. then (0., 0., 0.)
  else
    let run = Array.fold_left (fun a p -> a +. p.run_s) 0. r.procs in
    let read = Array.fold_left (fun a p -> a +. p.read_s) 0. r.procs in
    let write = Array.fold_left (fun a p -> a +. p.write_s) 0. r.procs in
    (run /. total, read /. total, write /. total)

type verdict = {
  met : bool;
  frames_delivered : int;
  mean_frame_interval_s : float;
  worst_frame_interval_s : float;
}

let real_time_verdict r ~expected_frames ~period_s ?(tolerance = 0.05)
    ?(allowed_leftover = 0) () =
  let all_intervals =
    List.concat_map
      (fun (_, times) ->
        let rec pairs = function
          | a :: (b :: _ as rest) -> (b -. a) :: pairs rest
          | _ -> []
        in
        pairs times)
      r.sink_eofs
  in
  let frames_delivered =
    match r.sink_eofs with
    | [] -> 0
    | eofs -> List.fold_left (fun acc (_, ts) -> min acc (List.length ts))
                max_int eofs
  in
  let frames_delivered = if frames_delivered = max_int then 0 else frames_delivered in
  let mean_i = Stats.mean all_intervals in
  let worst_i = match all_intervals with [] -> 0. | l -> Stats.maximum l in
  let met =
    r.input_stalls = 0 && r.late_emissions = 0
    && r.leftover_items <= allowed_leftover
    && (not r.timed_out)
    && frames_delivered >= expected_frames
    && (all_intervals = [] || worst_i <= period_s *. (1. +. tolerance))
  in
  {
    met;
    frames_delivered;
    mean_frame_interval_s = mean_i;
    worst_frame_interval_s = worst_i;
  }

let pp_stuck g ppf r =
  if r.leftover_channels = [] then
    Format.fprintf ppf "nothing left queued@,"
  else
    List.iter
      (fun (chan_id, count, front) ->
        let c = Graph.channel g chan_id in
        Format.fprintf ppf "  %s.%s -> %s.%s: %d items, front %a@,"
          (Graph.node g c.Graph.src.Graph.node).Graph.name
          c.Graph.src.Graph.port
          (Graph.node g c.Graph.dst.Graph.node).Graph.name
          c.Graph.dst.Graph.port count Item.pp front)
      (List.sort compare r.leftover_channels)

let pp_result ppf r =
  let run, read, write = utilization_breakdown r in
  Format.fprintf ppf
    "sim: %.6fs, %d PEs, avg util %.1f%% (run %.1f%% read %.1f%% write \
     %.1f%%), stalls %d, late %d, leftover %d%s"
    r.duration_s (Array.length r.procs)
    (100. *. average_utilization r)
    (100. *. run) (100. *. read) (100. *. write) r.input_stalls
    r.late_emissions r.leftover_items
    (if r.timed_out then " (TIMED OUT)" else "")
