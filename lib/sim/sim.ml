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
  static_regions : int;  (* static regions of the schedule, 0 if none *)
  static_fired : int;  (* firings that matched their table entry *)
  static_indexed_fired : int;  (* of those, dispatched via the slot ABI *)
  static_fallback_events : int;  (* table desyncs observed at runtime *)
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
  (* Kernel endpoints, for the quasi-static wake vetting: the node that
     pushes into this channel and the node that pops it ([None] for
     emitter/sink/unbound endpoints). *)
  mutable c_src : node_rt option;
  mutable c_dst : node_rt option;
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
  (* Quasi-static table cursor: method names of the node's firing table
     (empty when the schedule has none), the next expected position, and
     whether the run is still in sync with the table. Telemetry only —
     see {!Static_schedule}. *)
  st_prelude : string array;
  st_period : string array;
  mutable st_pos : int;
  mutable st_synced : bool;
  (* Scripted dispatch (quasi-static mode): the node's resolved firing
     table compiled against its channel bindings, so a synced static
     kernel fires through {!Behaviour.indexed} with no name lookup and
     no closure allocation. [sc_run_left > 0] means a run of identical
     firings was armed by one guard validation and the next [sc_run_left]
     scripted firings skip the guard entirely. *)
  mutable sc : scripted option;
  mutable sc_run_left : int;
  (* Scripted cursor over the node's segment-compressed program: the
     sentry of the current segment, how many positions of it remain
     (including the current one — the guard's maximal armable run), the
     segment index, and which side (prelude or period) the cursor walks.
     Maintained on every table advance so the per-examination hot path
     and the elision oracle read fields instead of re-deriving a
     prelude/period index (an integer division) each time. Meaningless
     while unsynced. *)
  mutable sc_next : sentry;
  mutable sc_left : int;
  mutable sc_seg : int;
  mutable sc_in_prelude : bool;
  (* Why the last decline proof held, for O(1) re-vetting of elided wakes
     on adjacent channel changes (see [wake_push]/[wake_pop]): 0 = no
     cached proof, 1 = input-blocked on [sc_block_chan] (fewer than one
     firing's worth queued, everything queued matches the table), 2 =
     output-space-blocked, 3 = proven by the behaviour's [starved]
     closure (no incremental form — any adjacent change re-proves in
     full). Consulted only between an elision and its restore. *)
  mutable sc_blocked : int;
  mutable sc_block_chan : chan_rt option;
  rt_f : float array;  (* 0 = total busy seconds; 1 = current busy end *)
  mutable ks_state : kernel_state;  (* as of the last dispatch examination *)
  mutable fb_pending : bool;  (* sources only: next Data push starts a frame *)
}

and scripted = {
  sc_ports : Behaviour.ports;  (* slot-indexed io over the bound channels *)
  sc_fire : Behaviour.ports -> int -> Behaviour.fired option;
  (* The firing table compressed to segments: one (sentry, length) pair
     per maximal run of identical firings ([e_run]), per side. A period
     of hundreds of entries holds only dozens of segments and a handful
     of distinct compiled shapes, so this is what the per-[run] wiring
     builds — nothing in the engine is sized by raw entry count. *)
  sc_pre_segs : sentry array;
  sc_pre_runs : int array;
  sc_per_segs : sentry array;
  sc_per_runs : int array;
}

(* One compiled firing-table shape: the behaviour op index plus the exact
   ring checks that prove the generic path would fire this entry next. *)
and sentry = {
  sop : int;  (* Behaviour.indexed op, -1 = dispatch generically *)
  s_pops : (chan_rt * Static_schedule.item_kind array) array;
      (* per popped input channel: expected front kinds of ONE firing *)
  s_outs : (chan_rt array * int) array;
      (* per space-checked output port: fan-out set and pushes per firing *)
  s_need : int;  (* free slots one firing needs on each checked port *)
  s_armable : bool;  (* safe to arm a multi-firing run from one guard *)
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


(* Placeholder for [sc_next] until a node is wired for scripted
   dispatch; its [sop = -1] routes any accidental use to the generic
   path. *)
let null_sentry =
  { sop = -1; s_pops = [||]; s_outs = [||]; s_need = 0; s_armable = false }

(* Point a scripted node's cursor at the first segment of its program
   (prelude when one exists, else straight into the period). *)
let script_init (rt : node_rt) (sc : scripted) =
  if Array.length sc.sc_pre_segs > 0 then begin
    rt.sc_in_prelude <- true;
    rt.sc_seg <- 0;
    rt.sc_next <- sc.sc_pre_segs.(0);
    rt.sc_left <- sc.sc_pre_runs.(0)
  end
  else if Array.length sc.sc_per_segs > 0 then begin
    rt.sc_in_prelude <- false;
    rt.sc_seg <- 0;
    rt.sc_next <- sc.sc_per_segs.(0);
    rt.sc_left <- sc.sc_per_runs.(0)
  end
  else begin
    (* No recorded firings at all: park on the null sentry forever. *)
    rt.sc_next <- null_sentry;
    rt.sc_left <- max_int
  end

(* Step a scripted node's cursor one table position forward: consume one
   position of the current segment, rolling into the next segment — and
   from the end of the prelude into the period, which then cycles — when
   it runs dry. *)
let advance_script (rt : node_rt) (sc : scripted) =
  if rt.sc_left > 1 then rt.sc_left <- rt.sc_left - 1
  else begin
    let s = rt.sc_seg + 1 in
    if rt.sc_in_prelude && s >= Array.length sc.sc_pre_segs then begin
      rt.sc_in_prelude <- false;
      rt.sc_seg <- 0;
      rt.sc_next <- sc.sc_per_segs.(0);
      rt.sc_left <- sc.sc_per_runs.(0)
    end
    else begin
      let s = if rt.sc_in_prelude || s < Array.length sc.sc_per_segs then s else 0 in
      if rt.sc_in_prelude then begin
        rt.sc_seg <- s;
        rt.sc_next <- sc.sc_pre_segs.(s);
        rt.sc_left <- sc.sc_pre_runs.(s)
      end
      else begin
        rt.sc_seg <- s;
        rt.sc_next <- sc.sc_per_segs.(s);
        rt.sc_left <- sc.sc_per_runs.(s)
      end
    end
  end

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
    ?static_schedule ~graph:g ~mapping ~machine () =
  Graph.validate g;
  let pe = machine.Machine.pe in
  (* Quasi-static mode: active only when a schedule is supplied AND no
     observer is installed. The elided examinations are exactly ones that
     would decline (the [starved] oracle contract), so simulated outcomes
     are bit-identical — but observers report *examinations* (state
     intervals, per-attempt block events), which elision would thin out.
     With any observer present the engine stays fully event-driven, and
     so it does for a truncated schedule, which carries no tables. *)
  let static_mode =
    (match static_schedule with
    | Some s -> not s.Static_schedule.truncated
    | None -> false)
    && (not (Option.is_some observer))
    && (not (Option.is_some channel_observer))
    && not (Option.is_some state_observer)
  in
  let sched =
    match static_schedule with
    | Some s -> s
    | None -> Static_schedule.empty
  in
  let methods_of (tbl : Static_schedule.node_table option) =
    match tbl with
    | None -> ([||], [||])
    | Some tbl ->
      ( Array.map (fun e -> e.Static_schedule.e_method)
          tbl.Static_schedule.t_prelude,
        Array.map (fun e -> e.Static_schedule.e_method)
          tbl.Static_schedule.t_period )
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
          c_src = None;
          c_dst = None;
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
  let static_ids =
    if static_mode then Static_schedule.static_node_ids sched else []
  in
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
      (* Only static-region members are reconciled against their tables:
         a node excluded from every static region (user tokens, or an
         unverified period) has a firing order the schedule deliberately
         refuses to predict, so holding it to the recorder's order would
         report spurious desyncs. *)
      let st_prelude, st_period =
        methods_of
          (if static_mode && List.mem n.Graph.id static_ids then
             Static_schedule.table sched n.Graph.id
           else None)
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
          st_prelude;
          st_period;
          st_pos = 0;
          st_synced = Array.length st_period > 0;
          sc = None;
          sc_run_left = 0;
          sc_next = null_sentry;
          sc_left = 0;
          sc_seg = 0;
          sc_in_prelude = false;
          sc_blocked = 0;
          sc_block_chan = None;
          rt_f = [| 0.; 0. |];
          ks_state = Ks_idle;
          fb_pending = true;
        }
      in
      Array.iter (fun (_, c) -> c.c_dst <- Some rt) in_chans;
      Array.iter
        (fun (_, cs) -> Array.iter (fun c -> c.c_src <- Some rt) cs)
        out_chans;
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
  (* Ready-set marking. In quasi-static mode a mark that lands on a busy
     processor whose end-of-service wake was elided re-proves the elision
     ([p_oracle], the same per-processor decline proof the firing site
     used): while every kernel still provably declines the wake stays
     elided, and the first change that breaks the proof restores the wake
     at the exact time (and reserved heap rank) the eager engine would
     have used. [static_elided] counts wakes that stay elided for good:
     each is exactly one eager-engine event that would have been
     dispatched and declined, so [!processed + !static_elided] equals the
     eager engine's event count. *)
  let static_elided = ref 0 in
  let p_oracle = ref (fun (_ : int) -> false) in
  let wake_proc p =
    let proc = procs.(p) in
    if
      (not proc.pf_scheduled)
      && p_busy_until.(p) > now.(0) +. 1e-15
      && not (!p_oracle p)
    then begin
      proc.pf_scheduled <- true;
      decr static_elided;
      Heap.push_seq events ~time:p_busy_until.(p) ~seq:proc.pf_seq
        proc_free.(p)
    end
  in
  (* Vetting an elided wake against a single channel change, O(1) in the
     common cases. A pop on the producer's output only grows its space:
     it cannot lift an input block (proof kind 1), so the elision stands
     untouched; every other cached kind re-proves in full. *)
  let wake_pop (c : chan_rt) p =
    let proc = procs.(p) in
    if (not proc.pf_scheduled) && p_busy_until.(p) > now.(0) +. 1e-15 then
      match c.c_src with
      | Some rt when rt.sc_blocked = 1 -> ()
      | _ -> wake_proc p
  in
  (* A push on the consumer's input: positions at or beyond one firing's
     worth cannot touch the proof (the predicted firing never reads
     them); below that, the new item either matches the table — in which
     case only the blocking channel reaching a full firing's worth can
     lift an input block — or contradicts it, voiding the proof. *)
  let wake_push (c : chan_rt) p =
    let proc = procs.(p) in
    if (not proc.pf_scheduled) && p_busy_until.(p) > now.(0) +. 1e-15 then
      match c.c_dst with
      | Some rt when rt.sc_blocked = 1 || rt.sc_blocked = 2 ->
        let e = rt.sc_next in
        let pops = e.s_pops in
        let np = Array.length pops in
        let rec find i =
          if i >= np then -1
          else
            let cc, _ = pops.(i) in
            if cc == c then i else find (i + 1)
        in
        let ix = find 0 in
        if ix < 0 then () (* not popped by the predicted firing *)
        else begin
          let _, kinds = pops.(ix) in
          let u = Array.length kinds in
          let len = Ring.length c.ring in
          let pos = len - 1 in
          if pos >= u then () (* beyond the first firing *)
          else if
            Static_schedule.kind_of_item (Ring.peek_at c.ring pos)
            == kinds.(pos)
          then begin
            if
              rt.sc_blocked = 1
              && len >= u
              && match rt.sc_block_chan with Some b -> b == c | None -> false
            then wake_proc p
          end
          else wake_proc p (* first-firing mismatch: proof void *)
        end
      | _ -> wake_proc p
  in
  let mark_producer (c : chan_rt) =
    match c.producer with
    | P_proc p ->
      procs.(p).ready <- true;
      if static_mode then wake_pop c p
    | P_emit e -> if e.em_blocked then e.em_woken <- true
    | P_sink _ | P_none -> ()
  in
  let mark_consumer (c : chan_rt) =
    match c.consumer with
    | P_proc p ->
      procs.(p).ready <- true;
      if static_mode then wake_push c p
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
  (* Scripted-dispatch wiring (quasi-static mode): compile each static
     node's resolved firing table against its channel bindings, so synced
     kernels fire through {!Behaviour.indexed} with no port-name lookup.
     The slot-indexed io repeats [build_io]'s bookkeeping operation for
     operation minus the sink/source/observer branches — static-region
     members are never sinks or sources, and observers disable static
     mode outright. *)
  let null_chan =
    {
      id = -1;
      ring = Ring.create ~capacity:1 ~dummy:dummy_item;
      hops = 0;
      max_depth = 0;
      producer = P_none;
      consumer = P_none;
      c_src = None;
      c_dst = None;
    }
  in
  let build_ports (rt : node_rt) (ix_in : chan_rt array)
      (ix_out : chan_rt array array) =
    {
      Behaviour.ix_peek = (fun s -> Ring.peek ix_in.(s).ring);
      ix_pop =
        (fun s ->
          let c = ix_in.(s) in
          let item = Ring.pop c.ring in
          rt.cw_read <- rt.cw_read + Item.words item;
          mark_producer c;
          item);
      ix_push =
        (fun s item ->
          let cs = ix_out.(s) in
          for i = 0 to Array.length cs - 1 do
            let c = cs.(i) in
            (* Fan-out: pool-backed copies beyond channel 0, exactly as
               [build_io.push]. *)
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
            mark_consumer c
          done);
      ix_space =
        (fun s ->
          let cs = ix_out.(s) in
          let n = Array.length cs in
          if n = 0 then max_int
          else begin
            let acc = ref max_int in
            for i = 0 to n - 1 do
              let free = Ring.space cs.(i).ring in
              if free < !acc then acc := free
            done;
            !acc
          end);
      ix_has = (fun s -> not (Ring.is_empty ix_in.(s).ring));
      ix_acquire = acquire_chunk;
      ix_release = release_chunk;
    }
  in
  if static_mode then
    List.iter
      (fun id ->
        let rt = node_rt id in
        match
          (rt.behaviour.Behaviour.indexed, Static_schedule.table sched id)
        with
        | Some ix, Some tbl ->
          let spec = rt.node.Graph.spec in
          let ix_in =
            Array.of_list
              (List.map
                 (fun name ->
                   (* An unconnected input never appears in a recorded
                      entry; the shared placeholder keeps the array dense. *)
                   match
                     Array.find_opt
                       (fun (n, _) -> String.equal n name)
                       rt.in_chans
                   with
                   | Some (_, c) -> c
                   | None -> null_chan)
                 (Spec.input_order spec))
          in
          let ix_out =
            Array.of_list
              (List.map
                 (fun name -> find_port "output" rt rt.out_chans name)
                 (Spec.output_order spec))
          in
          let compile (e : Static_schedule.entry) =
            let op =
              ix.Behaviour.op_of ~method_name:e.Static_schedule.e_method
                ~pops:e.Static_schedule.e_pop_slots
                ~pushes:e.Static_schedule.e_push_slots
            in
            if op < 0 then
              {
                sop = -1;
                s_pops = [||];
                s_outs = [||];
                s_need = 0;
                s_armable = false;
              }
            else begin
              (* Group the entry's pops by input slot, order preserved. *)
              let slots = ref [] in
              Array.iter
                (fun s ->
                  if not (List.mem s !slots) then slots := s :: !slots)
                e.Static_schedule.e_pop_slots;
              let s_pops =
                Array.of_list
                  (List.rev_map
                     (fun s ->
                       let kinds = ref [] in
                       Array.iteri
                         (fun i s' ->
                           if s' = s then
                             kinds :=
                               snd e.Static_schedule.e_pops.(i) :: !kinds)
                         e.Static_schedule.e_pop_slots;
                       (ix_in.(s), Array.of_list (List.rev !kinds)))
                     !slots)
              in
              let outs = ix.Behaviour.space_outs op in
              let s_outs =
                Array.of_list
                  (List.filter_map
                     (fun o ->
                       let cs = ix_out.(o) in
                       if Array.length cs = 0 then None
                       else begin
                         (* Pushes per firing per channel: every fan-out
                            channel of the port receives the same count. *)
                         let cid = cs.(0).id in
                         let u = ref 0 in
                         Array.iter
                           (fun (c, _) -> if c = cid then incr u)
                           e.Static_schedule.e_pushes;
                         Some (cs, !u)
                       end)
                     (Array.to_list outs))
              in
              {
                sop = op;
                s_pops;
                s_outs;
                s_need = ix.Behaviour.space_need op;
                s_armable =
                  (* An op whose space the engine cannot pre-check (it
                     self-checks inside the fire) is never batch-armed. *)
                  Array.length e.Static_schedule.e_pushes = 0
                  || Array.length outs > 0;
              }
            end
          in
          (* A table has one entry per recorded firing but only dozens of
             segments and a handful of distinct shapes, pre-computed by
             the schedule recorder ([e_run], [e_shape]); compile each shape
             once, emit one (sentry, length) pair per maximal run, and
             nothing in the per-[run] wiring is sized by raw entry
             count. *)
          let nshapes = ref 1 in
          let count (e : Static_schedule.entry) =
            if e.Static_schedule.e_shape >= !nshapes then
              nshapes := e.Static_schedule.e_shape + 1
          in
          Array.iter count tbl.Static_schedule.t_prelude;
          Array.iter count tbl.Static_schedule.t_period;
          let protos = Array.make !nshapes None in
          let proto_of (e : Static_schedule.entry) =
            match protos.(e.Static_schedule.e_shape) with
            | Some s -> s
            | None ->
              let s = compile e in
              protos.(e.Static_schedule.e_shape) <- Some s;
              s
          in
          let segments (entries : Static_schedule.entry array) =
            let n = Array.length entries in
            let acc = ref [] and i = ref 0 in
            while !i < n do
              let e = entries.(!i) in
              acc := (proto_of e, e.Static_schedule.e_run) :: !acc;
              i := !i + max 1 e.Static_schedule.e_run
            done;
            let l = List.rev !acc in
            (Array.of_list (List.map fst l), Array.of_list (List.map snd l))
          in
          let pre_segs, pre_runs = segments tbl.Static_schedule.t_prelude in
          let per_segs, per_runs = segments tbl.Static_schedule.t_period in
          let sc =
            {
              sc_ports = build_ports rt ix_in ix_out;
              sc_fire = ix.Behaviour.fire_indexed;
              sc_pre_segs = pre_segs;
              sc_pre_runs = pre_runs;
              sc_per_segs = per_segs;
              sc_per_runs = per_runs;
            }
          in
          rt.sc <- Some sc;
          if rt.st_synced then script_init rt sc
        | _ -> ())
      static_ids;
  (* One step of a node. Service-time pricing happens at the dispatch
     site — the only caller that needs it — from the [cw_*] word
     counters; a sink or emitter firing prices nothing, and a step
     returns the behaviour's interned [fired] with no wrapper. *)
  (* Table reconciliation (telemetry only): a firing either matches the
     next entry of the node's table — walking prelude then cycling the
     period — or desyncs the node for the rest of the run. *)
  let static_fired = ref 0 in
  let static_fallback = ref 0 in
  let reconcile (rt : node_rt) (f : Behaviour.fired) =
    let plen = Array.length rt.st_prelude in
    let expected =
      if rt.st_pos < plen then rt.st_prelude.(rt.st_pos)
      else rt.st_period.((rt.st_pos - plen) mod Array.length rt.st_period)
    in
    (* Method names are interned per kernel module, so the physical test
       settles almost every comparison. *)
    if expected == f.Behaviour.method_name
       || String.equal expected f.Behaviour.method_name
    then begin
      rt.st_pos <- rt.st_pos + 1;
      (match rt.sc with Some sc -> advance_script rt sc | None -> ());
      incr static_fired
    end
    else begin
      rt.st_synced <- false;
      rt.sc_run_left <- 0;
      incr static_fallback
    end
  in
  let step_node (rt : node_rt) =
    rt.cw_read <- 0;
    rt.cw_write <- 0;
    rt.cw_hop <- 0;
    rt.cw_full_out <- -1;
    match rt.behaviour.Behaviour.try_step rt.io with
    | None -> None
    | Some f as fired ->
      rt.rt_fires <- rt.rt_fires + 1;
      if rt.st_synced then reconcile rt f;
      fired
  in
  (* Scripted dispatch: fire the node's next table entry through the
     slot-indexed ABI. The guard proves the generic path would fire
     exactly this entry next — fronts present with the recorded kinds,
     space for the recorded pushes — and [fire_indexed] re-checks any
     private-state precondition, declining mutation-free on mismatch, in
     which case (and on any guard failure) the attempt falls back to the
     generic [step_node] with its PR-7 reconcile semantics intact. *)
  let static_indexed = ref 0 in
  (* The guard's three-way verdict on entry [e] at the front of the
     table, with [run] = the identical-firing run length from the
     current position:

     - [k >= 1]: one validation proves [k] consecutive firings of [e] —
       fronts carry the recorded kinds and [space0 - j*u >= need]
       budgets firing [j] exactly. Sound because only this node consumes
       its input fronts (producers append at the back) and only this
       node shrinks its output space.
     - [0]: unproven either way — a queued item contradicts the table
       (possible desync); hand the node to the generic path.
     - [-1]: a proven decline — every queued item matches the table but
       a popped channel holds fewer than one firing's worth, or the
       fronts are complete and an output lacks space. A synced node's
       next firing is its next table entry (Kahn determinism: firing
       sequences are a function of input item sequences, and static-
       region kernels branch on item kind only), so the generic
       examination would deterministically decline; callers skip it, and
       the post-service elision oracle reuses the same proof.

     Constant constructors make the kind test a physical comparison. *)
  (* Written as tail-recursive int loops — the guard runs tens of
     thousands of times per run, and without flambda every [ref] here
     would be a live minor-heap allocation. *)
  let guard_k (rt : node_rt) (e : sentry) (run : int) =
    let nouts = Array.length e.s_outs in
    let rec outs i k =
      if i >= nouts then k
      else begin
        let cs, u = e.s_outs.(i) in
        let n = Array.length cs in
        let rec minfree j sp =
          if j >= n then sp
          else
            let f = Ring.space cs.(j).ring in
            minfree (j + 1) (if f < sp then f else sp)
        in
        let sp = minfree 0 max_int in
        if sp < e.s_need then -2 (* fronts complete: proven space block *)
        else if u > 0 then begin
          let cap = ((sp - e.s_need) / u) + 1 in
          outs (i + 1) (if cap < k then cap else k)
        end
        else outs (i + 1) k
      end
    in
    let npops = Array.length e.s_pops in
    (* [short]: everything queued on some popped channel matched but one
       firing's worth isn't there — a proven input block, unless a later
       channel shows a first-firing mismatch (which makes the verdict
       unproven and dominates). *)
    let rec pops i k short =
      if k = 0 then 0
      else if i >= npops then if short then -1 else outs 0 k
      else begin
        let c, kinds = e.s_pops.(i) in
        let u = Array.length kinds in
        let len = Ring.length c.ring in
        let m = k * u in
        let maxj = if m < len then m else len in
        let j =
          if u = 1 then begin
            (* Single pop per firing — the overwhelmingly common shape;
               no index arithmetic in the scan. *)
            let k0 = kinds.(0) in
            let rec scan j =
              if
                j < maxj
                && Static_schedule.kind_of_item (Ring.peek_at c.ring j) == k0
              then scan (j + 1)
              else j
            in
            scan 0
          end
          else
            let rec scan j =
              if
                j < maxj
                && Static_schedule.kind_of_item (Ring.peek_at c.ring j)
                   == kinds.(j mod u)
              then scan (j + 1)
              else j
            in
            scan 0
        in
        if j < maxj then
          (* A queued item disagrees with the table. Inside the first
             firing that is a desync witness (unproven); beyond it, it
             merely limits the armable run. *)
          let fir = j / u in
          pops (i + 1) (if fir < k then fir else k) short
        else if j = len && len < m then
          (* All queued items match but fewer than [k] firings' worth are
             there: blocked at firing [len / u]. *)
          let fir = j / u in
          if fir = 0 then begin
            rt.sc_block_chan <- Some c;
            pops (i + 1) k true
          end
          else pops (i + 1) (if fir < k then fir else k) short
        else pops (i + 1) (if j / u < k then j / u else k) short
      end
    in
    pops 0 (if e.s_armable then run else 1) false
  in
  let step_kernel (rt : node_rt) =
    match rt.sc with
    | Some sc when rt.st_synced ->
      let e = rt.sc_next in
      if rt.sc_run_left > 0 then begin
        (* Armed: the guard already proved this whole run of identical
           firings; dispatch straight into the op. *)
        rt.cw_read <- 0;
        rt.cw_write <- 0;
        rt.cw_hop <- 0;
        rt.cw_full_out <- -1;
        match sc.sc_fire sc.sc_ports e.sop with
        | Some _ as fired ->
          rt.sc_run_left <- rt.sc_run_left - 1;
          rt.rt_fires <- rt.rt_fires + 1;
          rt.st_pos <- rt.st_pos + 1;
          advance_script rt sc;
          incr static_fired;
          incr static_indexed;
          fired
        | None ->
          rt.sc_run_left <- 0;
          step_node rt
      end
      else begin
        let k = if e.sop >= 0 then guard_k rt e rt.sc_left else 0 in
        if k > 0 then begin
          rt.cw_read <- 0;
          rt.cw_write <- 0;
          rt.cw_hop <- 0;
          rt.cw_full_out <- -1;
          match sc.sc_fire sc.sc_ports e.sop with
          | Some _ as fired ->
            rt.sc_run_left <- k - 1;
            rt.rt_fires <- rt.rt_fires + 1;
            rt.st_pos <- rt.st_pos + 1;
            advance_script rt sc;
            incr static_fired;
            incr static_indexed;
            fired
          | None -> step_node rt
        end
        else if k < 0 && not state_observing then
          (* Proven decline: skip the generic examination outright. (With
             a state observer installed the generic decline still runs —
             its [cw_full_out] classifies the blocked state.) *)
          None
        else step_node rt
      end
    | _ -> step_node rt
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
  (* Every kernel of a processor provably declining right now? Then its
     post-service examination would fire nothing, and the [Proc_free]
     wake can be elided (restored by the first adjacent channel change —
     see [wake_proc]). Two proof sources, per kernel:

     - the scripted guard: a synced node's next table entry is blocked
       on an input or an output ([guard_k] verdict [-1]) — cheaper than
       the behaviour oracle (direct ring reads, no string-keyed io) and
       strictly stronger, since it also proves output-blocked declines;
     - the behaviour's own [starved] oracle, as before, for unscripted
       kernels and unproven guard verdicts.

     The test is specialized per processor at startup: the common
     one-kernel mapping collapses to a single call, and a processor with
     any proof-less kernel is never provably declining. *)
  let p_all_starved =
    let kernel_declines (rt : node_rt) =
      let starved =
        match rt.behaviour.Behaviour.starved with
        | Some st ->
          Some
            (fun () ->
              if st rt.io then begin
                rt.sc_blocked <- 3;
                true
              end
              else false)
        | None -> None
      in
      match rt.sc with
      | None -> starved
      | Some _ ->
        let fallback =
          match starved with Some f -> f | None -> fun () -> false
        in
        Some
          (fun () ->
            if not rt.st_synced then fallback ()
            else if rt.sc_run_left > 0 then false (* armed: will fire *)
            else
              let e = rt.sc_next in
              if e.sop < 0 then fallback ()
              else
                let k = guard_k rt e rt.sc_left in
                if k > 0 then begin
                  (* A verdict proven here still holds at the wake's
                     dispatch: matched input fronts cannot change (only
                     this node pops them, and it only runs here) and
                     proven output space cannot shrink (only this node
                     pushes it) — so arm the run now and the dispatch
                     skips the guard entirely. *)
                  rt.sc_run_left <- k;
                  false
                end
                else if k < 0 then begin
                  (* Proven block; remember which kind so adjacent
                     channel changes can re-vet the proof in O(1). *)
                  rt.sc_blocked <- (if k = -1 then 1 else 2);
                  true
                end
                else fallback ())
    in
    Array.map
      (fun proc ->
        let rec collect i acc =
          if i < 0 then Some acc
          else
            let rt = proc.kernels.(i) in
            match kernel_declines rt with
            | Some pred -> collect (i - 1) (pred :: acc)
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
  p_oracle := (fun p -> p_all_starved.(p) ());
  let rec attempt_kernel proc p k i =
    if i >= k then false
    else begin
      let idx = (proc.cursor + i) mod k in
      let rt = proc.kernels.(idx) in
      match step_kernel rt with
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
    static_regions =
      (if static_mode then Static_schedule.static_regions sched else 0);
    static_fired = !static_fired;
    static_indexed_fired = !static_indexed;
    static_fallback_events = !static_fallback;
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
