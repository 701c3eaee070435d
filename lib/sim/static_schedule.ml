open Bp_util
module Graph = Bp_graph.Graph
module Spec = Bp_kernel.Spec
module Item = Bp_kernel.Item
module Behaviour = Bp_kernel.Behaviour
module Token = Bp_token.Token
module Image = Bp_image.Image
module Pool = Bp_image.Pool

(* A quasi-static schedule: per-kernel periodic firing tables recovered by
   an untimed functional execution of the mapped graph (the "recorder"),
   plus the partition of the graph into static regions.

   The tables are an artifact: the timed engine's correctness NEVER
   depends on them. What makes wake elision exact is the kernels'
   [starved] decline oracles ({!Bp_kernel.Behaviour.t}); the tables
   only (a) document the steady-state firing pattern, (b) let the
   engine report how much of a run matched the predicted pattern
   (coverage), and (c) drive the [--dump-after schedule] artifact. A
   kernel whose runtime firing order diverges from its table desyncs and
   is simply counted, not mis-simulated.

   Determinism: a kernel's per-node firing sequence is a function of its
   input item sequence alone (dataflow/Kahn determinism — declined
   attempts mutate nothing), so the untimed recorder observes the same
   per-node sequences as any timed execution, regardless of interleaving.
   This is what makes runtime coverage high rather than coincidental. *)

type item_kind = K_data | K_eol | K_eof | K_user

let kind_of_item = function
  | Item.Data _ -> K_data
  | Item.Ctl tok -> (
    match tok.Token.kind with
    | Token.End_of_line -> K_eol
    | Token.End_of_frame -> K_eof
    | Token.User _ -> K_user)

let kind_name = function
  | K_data -> "data"
  | K_eol -> "eol"
  | K_eof -> "eof"
  | K_user -> "user"

type entry = {
  e_method : string;
  e_pops : (int * item_kind) array;  (* channel id, item kind, pop order *)
  e_pushes : (int * item_kind) array;
}

type node_table = {
  t_node : Graph.node_id;
  t_prelude : entry array;  (* firings of the first recorded frame *)
  t_period : entry array;  (* firings of the second frame: the cycle *)
  t_verified : bool;  (* a third frame repeated the period exactly *)
  t_user_tokens : bool;  (* the node popped or pushed a User token *)
  t_firings : int;  (* every recorded firing of the node, all frames *)
}

type region = {
  r_id : int;
  r_nodes : Graph.node_id list;  (* ascending *)
  r_static : bool;
}

type t = {
  tables : (Graph.node_id * node_table) list;  (* ascending node id *)
  regions : region list;  (* ascending region id *)
  by_proc : (int * Graph.node_id list) list;  (* static nodes per PE *)
  recorded_firings : int;
  truncated : bool;  (* recorder hit its firing cap; tables are empty *)
}

let empty = {
  tables = []; regions = []; by_proc = []; recorded_firings = 0;
  truncated = false;
}

(* ---- recorder -------------------------------------------------------- *)

(* Untimed functional execution with the real behaviours, on the timed
   engine's data plane: each channel is a {!Ring}, each node binds its
   ports once (as [Sim.run]'s [build_io] does), and chunks come from a
   per-build {!Bp_image.Pool} under the engine's ownership rules, so
   fan-out channels beyond the first receive pooled copies. Sinks are
   NOT instantiated — a sink's [make_behaviour] resets the application's
   shared collector, which must keep belonging to the timed run — their
   channels are drained raw instead, releasing the data chunks popped.

   A firing is recorded as one int. Its pops and pushes are packed as
   [channel index * 4 + kind] into reusable scratch, interned against
   the node's few distinct shapes, and the shape's index is appended to
   the node's firing sequence. Tables are then cut from those int
   sequences; entries that share a shape share its arrays. *)

type ints = { mutable a : int array; mutable n : int }

let ints () = { a = Array.make 64 0; n = 0 }

let add b v =
  if b.n = Array.length b.a then begin
    let grown = Array.make (2 * b.n) 0 in
    Array.blit b.a 0 grown 0 b.n;
    b.a <- grown
  end;
  b.a.(b.n) <- v;
  b.n <- b.n + 1

let kind_code = function K_data -> 0 | K_eol -> 1 | K_eof -> 2 | K_user -> 3
let code_kind = [| K_data; K_eol; K_eof; K_user |]

type rec_chan = { ix : int; ring : Item.t Ring.t }

let dummy_item = Item.ctl (Token.eof (-1))

let pack c item = (c.ix lsl 2) lor kind_code (kind_of_item item)

type shape = {
  s_method : string;
  s_pops : int array;  (* packed, pop order *)
  s_pushes : int array;
}

type rec_node = {
  rn_node : Graph.node;
  rn_pops : ints;  (* the current firing's packed pops *)
  rn_pushes : ints;
  mutable rn_shapes : shape array;  (* first-occurrence order *)
  rn_seq : ints;  (* shape index of every firing *)
}

let rec same_ints a b i = i = b.n || (a.(i) = b.a.(i) && same_ints a b (i + 1))

let matches r s meth =
  String.equal s.s_method meth
  && Array.length s.s_pops = r.rn_pops.n
  && Array.length s.s_pushes = r.rn_pushes.n
  && same_ints s.s_pops r.rn_pops 0
  && same_ints s.s_pushes r.rn_pushes 0

let rec shape_index r meth i =
  let k = Array.length r.rn_shapes in
  if i = k then begin
    let s =
      {
        s_method = meth;
        s_pops = Array.sub r.rn_pops.a 0 r.rn_pops.n;
        s_pushes = Array.sub r.rn_pushes.a 0 r.rn_pushes.n;
      }
    in
    r.rn_shapes <- Array.append r.rn_shapes [| s |];
    k
  end
  else if matches r r.rn_shapes.(i) meth then i
  else shape_index r meth (i + 1)

(* Most firings repeat their predecessor's shape: try it first. *)
let intern r meth =
  let last = if r.rn_seq.n = 0 then -1 else r.rn_seq.a.(r.rn_seq.n - 1) in
  add r.rn_seq
    (if last >= 0 && matches r r.rn_shapes.(last) meth then last
     else shape_index r meth 0)

let rec find_port (n : Graph.node) what a port i =
  if i >= Array.length a then
    Err.graphf "schedule recorder: %s: no %s channel %S" n.Graph.name what port
  else
    let name, c = a.(i) in
    if String.equal name port then c else find_port n what a port (i + 1)

(* Cut one node's firing sequence into its table. Frames end just past
   each firing that popped an end-of-frame token: the first frame is the
   prelude, the second the period, and a third verifies the period; a
   trailing partial frame is dropped. Entries of one shape share a single
   record. *)
let table_of (chans : Graph.channel array) r =
  let seq = r.rn_seq.a and len = r.rn_seq.n in
  let has k codes = Array.exists (fun c -> c land 3 = kind_code k) codes in
  let proto s =
    let side codes =
      Array.map
        (fun c -> (chans.(c lsr 2).Graph.chan_id, code_kind.(c land 3)))
        codes
    in
    { e_method = s.s_method; e_pops = side s.s_pops;
      e_pushes = side s.s_pushes }
  in
  let protos = Array.map proto r.rn_shapes in
  let eof = Array.map (fun s -> has K_eof s.s_pops) r.rn_shapes in
  let ends = Array.make 3 len and nends = ref 0 and i = ref 0 in
  while !nends < 3 && !i < len do
    if eof.(seq.(!i)) then begin
      ends.(!nends) <- !i + 1;
      incr nends
    end;
    incr i
  done;
  let segment lo hi = Array.init (hi - lo) (fun i -> protos.(seq.(lo + i))) in
  let b1 = ends.(0) and b2 = ends.(1) in
  let rec same k =
    k = b2 - b1 || (seq.(b1 + k) = seq.(b2 + k) && same (k + 1))
  in
  {
    t_node = r.rn_node.Graph.id;
    t_prelude = segment 0 b1;
    t_period = (if !nends >= 2 then segment b1 b2 else [||]);
    t_verified = !nends = 3 && ends.(2) - b2 = b2 - b1 && same 0;
    t_user_tokens =
      Array.exists (fun s -> has K_user s.s_pops || has K_user s.s_pushes)
        r.rn_shapes;
    t_firings = len;
  }

let record ?(max_firings = 5_000_000) g =
  let pool = Pool.create () in
  let chans = Array.of_list (Graph.channels g) in
  let by_id = Hashtbl.create 64 in
  Array.iteri
    (fun ix (c : Graph.channel) ->
      Hashtbl.replace by_id c.Graph.chan_id
        { ix; ring = Ring.create ~capacity:c.Graph.capacity ~dummy:dummy_item })
    chans;
  let chan (c : Graph.channel) = Hashtbl.find by_id c.Graph.chan_id in
  let nodes =
    List.sort (fun (a : Graph.node) b -> compare a.Graph.id b.Graph.id)
      (Graph.nodes g)
  in
  let is_sink (n : Graph.node) = n.Graph.spec.Spec.role = Spec.Sink in
  let total = ref 0 and truncated = ref false in
  (* Per-node untimed stepper: behaviour + recording io. *)
  let stepper (n : Graph.node) =
    let r =
      { rn_node = n; rn_pops = ints (); rn_pushes = ints ();
        rn_shapes = [||]; rn_seq = ints () }
    in
    let ins =
      Array.of_list
        (List.map
           (fun (c : Graph.channel) -> (c.Graph.dst.Graph.port, chan c))
           (Graph.in_channels g n.Graph.id))
    in
    let outs =
      Array.of_list
        (List.map
           (fun (p : Bp_kernel.Port.t) ->
             ( p.Bp_kernel.Port.name,
               Array.of_list
                 (List.map chan
                    (Graph.out_channels g n.Graph.id
                       ~port:p.Bp_kernel.Port.name ())) ))
           n.Graph.spec.Spec.outputs)
    in
    let input port = find_port n "input" ins port 0
    and output port = find_port n "output" outs port 0 in
    let io =
      {
        Behaviour.peek =
          (fun port ->
            let c = input port in
            if Ring.is_empty c.ring then None else Some (Ring.peek c.ring));
        pop =
          (fun port ->
            let c = input port in
            let item = Ring.pop c.ring in
            add r.rn_pops (pack c item);
            item);
        push =
          (fun port item ->
            let cs = output port in
            for i = 0 to Array.length cs - 1 do
              let c = cs.(i) in
              if Ring.is_full c.ring then
                Err.graphf "schedule recorder: %s: push past capacity on %S"
                  n.Graph.name port;
              let item =
                match item with
                | Item.Data img when i > 0 ->
                  let d = Pool.acquire pool (Image.size img) in
                  Image.blit ~src:img ~dst:d ~x:0 ~y:0;
                  Item.data d
                | _ -> item
              in
              Ring.push c.ring item;
              add r.rn_pushes (pack c item)
            done);
        space =
          (fun port ->
            let cs = output port and free = ref max_int in
            for i = 0 to Array.length cs - 1 do
              let s = Ring.space cs.(i).ring in
              if s < !free then free := s
            done;
            !free);
        acquire = Pool.acquire pool;
        release = Pool.release pool;
        has_input = (fun port -> not (Ring.is_empty (input port).ring));
      }
    in
    let behaviour = n.Graph.spec.Spec.make_behaviour () in
    let step () =
      r.rn_pops.n <- 0;
      r.rn_pushes.n <- 0;
      match behaviour.Behaviour.try_step io with
      | None -> false
      | Some f ->
        incr total;
        intern r f.Behaviour.method_name;
        true
    in
    (r, step)
  in
  let steppers =
    List.filter_map
      (fun n -> if is_sink n then None else Some (stepper n))
      nodes
  in
  (* Raw sink drains: consume everything queued on a sink's inputs. *)
  let sink_ins =
    List.concat_map
      (fun (n : Graph.node) ->
        if is_sink n then List.map chan (Graph.in_channels g n.Graph.id)
        else [])
      nodes
  in
  let drain progress c =
    let drained = not (Ring.is_empty c.ring) in
    while not (Ring.is_empty c.ring) do
      match Ring.pop c.ring with
      | Item.Data img -> Pool.release pool img
      | Item.Ctl _ -> ()
    done;
    progress || drained
  in
  (* Round-robin to quiescence: each sweep gives every node a
     fire-to-exhaustion turn (bounded rings keep any one turn finite). *)
  let progress = ref true in
  while !progress && not !truncated do
    progress := false;
    List.iter
      (fun (_, step) ->
        while (not !truncated) && step () do
          progress := true;
          if !total > max_firings then truncated := true
        done)
      steppers;
    progress := List.fold_left drain !progress sink_ins
  done;
  if !truncated then { empty with truncated = true; recorded_firings = !total }
  else
    let tables =
      List.filter_map
        (fun (r, _) ->
          if r.rn_seq.n = 0 then None
          else Some (r.rn_node.Graph.id, table_of chans r))
        steppers
    in
    { empty with tables; recorded_firings = !total }

(* ---- region partition ------------------------------------------------ *)

(* A kernel with two or more data methods is a reactive merge: which
   method fires first depends on the arrival order of independent input
   streams, which the untimed recorder cannot predict (the histogram's
   [configureBins]/[count] pair is the suite's example). Such nodes keep
   their tables for inspection but are never statically scheduled. *)
let multi_data_methods (n : Graph.node) =
  let data (m : Bp_kernel.Method_spec.t) =
    match m.Bp_kernel.Method_spec.trigger with
    | Bp_kernel.Method_spec.On_data _ -> true
    | Bp_kernel.Method_spec.On_token _ -> false
  in
  List.length (List.filter data n.Graph.spec.Spec.methods) > 1

let node_static (n : Graph.node) tbl =
  (match n.Graph.spec.Spec.role with
  | Spec.Source | Spec.Const_source | Spec.Sink -> false
  | _ -> true)
  && Array.length tbl.t_period > 0
  && (not tbl.t_user_tokens)
  && not (multi_data_methods n)

let partition g sched =
  let nodes =
    List.sort (fun (a : Graph.node) b -> compare a.Graph.id b.Graph.id)
      (Graph.nodes g)
  in
  let static_ids = Hashtbl.create 16 in
  List.iter
    (fun (n : Graph.node) ->
      match List.assoc_opt n.Graph.id sched.tables with
      | Some tbl when node_static n tbl ->
        Hashtbl.replace static_ids n.Graph.id ()
      | _ -> ())
    nodes;
  (* Union-find over static nodes; edges are channels between them. *)
  let parent = Hashtbl.create 16 in
  let rec find i =
    match Hashtbl.find_opt parent i with
    | Some p when p <> i ->
      let r = find p in
      Hashtbl.replace parent i r;
      r
    | _ -> i
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent (max ra rb) (min ra rb)
  in
  Hashtbl.iter (fun id () -> Hashtbl.replace parent id id) static_ids;
  List.iter
    (fun (c : Graph.channel) ->
      let s = c.Graph.src.Graph.node and d = c.Graph.dst.Graph.node in
      if Hashtbl.mem static_ids s && Hashtbl.mem static_ids d then union s d)
    (Graph.channels g);
  (* Deterministic region numbering: ascending by least member id, static
     components first, then singleton dynamic regions. *)
  let comps = Hashtbl.create 8 in
  Hashtbl.iter
    (fun id () ->
      let root = find id in
      let members =
        match Hashtbl.find_opt comps root with Some l -> l | None -> []
      in
      Hashtbl.replace comps root (id :: members))
    static_ids;
  let static_regions =
    Hashtbl.fold (fun _root members acc -> List.sort compare members :: acc)
      comps []
    |> List.sort compare
  in
  let dynamic_regions =
    List.filter_map
      (fun (n : Graph.node) ->
        if Hashtbl.mem static_ids n.Graph.id then None
        else Some [ n.Graph.id ])
      nodes
  in
  List.mapi
    (fun i (static, members) ->
      { r_id = i; r_nodes = members; r_static = static })
    (List.map (fun m -> (true, m)) static_regions
    @ List.map (fun m -> (false, m)) dynamic_regions)

(* ---- construction ---------------------------------------------------- *)

let build ?max_firings ~graph ~mapping () =
  let sched = record ?max_firings graph in
  if sched.truncated then sched
  else begin
    let regions = partition graph sched in
    let static_ids = Hashtbl.create 16 in
    List.iter
      (fun r ->
        if r.r_static then
          List.iter (fun id -> Hashtbl.replace static_ids id ()) r.r_nodes)
      regions;
    let by_proc =
      List.filter_map
        (fun p ->
          let on_p =
            List.filter (Hashtbl.mem static_ids)
              (List.sort compare (Mapping.nodes_on mapping p))
          in
          if on_p = [] then None else Some (p, on_p))
        (List.init (Mapping.processors mapping) Fun.id)
    in
    { sched with regions; by_proc }
  end

(* ---- queries --------------------------------------------------------- *)

let table t id = List.assoc_opt id t.tables

let static_node_ids t =
  List.concat_map (fun r -> if r.r_static then r.r_nodes else []) t.regions

let static_regions t =
  List.length (List.filter (fun r -> r.r_static) t.regions)

let coverage_bound t =
  (* Fraction of recorded firings made by static-region nodes, over every
     recorded frame — an upper bound on the runtime static coverage the
     executor can report. *)
  if t.recorded_firings = 0 then 0.
  else begin
    let static_ids = static_node_ids t in
    let static_fires =
      List.fold_left
        (fun acc (id, tbl) ->
          if List.mem id static_ids then acc + tbl.t_firings else acc)
        0 t.tables
    in
    float_of_int static_fires /. float_of_int t.recorded_firings
  end

(* ---- rendering ------------------------------------------------------- *)

let pp_entry ppf e =
  let pp_side ppf a =
    Array.iteri
      (fun i (cid, k) ->
        if i > 0 then Format.fprintf ppf ",";
        Format.fprintf ppf "c%d:%s" cid (kind_name k))
      a
  in
  Format.fprintf ppf "%s[%a -> %a]" e.e_method pp_side e.e_pops pp_side
    e.e_pushes

let pp g ppf t =
  if t.truncated then
    Format.fprintf ppf
      "schedule: recorder truncated after %d firings; no tables@,"
      t.recorded_firings
  else begin
    Format.fprintf ppf "schedule: %d regions (%d static), %d tables@,"
      (List.length t.regions) (static_regions t) (List.length t.tables);
    List.iter
      (fun r ->
        Format.fprintf ppf "  region %d (%s):%t@," r.r_id
          (if r.r_static then "static" else "dynamic")
          (fun ppf ->
            List.iter
              (fun id ->
                Format.fprintf ppf " %s" (Graph.node g id).Graph.name)
              r.r_nodes))
      t.regions;
    List.iter
      (fun p ->
        Format.fprintf ppf "  pe %d static kernels:%t@," (fst p)
          (fun ppf ->
            List.iter
              (fun id ->
                Format.fprintf ppf " %s" (Graph.node g id).Graph.name)
              (snd p)))
      t.by_proc;
    List.iter
      (fun (id, tbl) ->
        Format.fprintf ppf "  %s: prelude %d, period %d%s%s@,"
          (Graph.node g id).Graph.name
          (Array.length tbl.t_prelude)
          (Array.length tbl.t_period)
          (if tbl.t_verified then " (verified)" else "")
          (if tbl.t_user_tokens then " (user tokens)" else "");
        if Array.length tbl.t_period > 0 && Array.length tbl.t_period <= 8
        then begin
          Format.fprintf ppf "    period:";
          Array.iter
            (fun e -> Format.fprintf ppf " %a" pp_entry e)
            tbl.t_period;
          Format.fprintf ppf "@,"
        end)
      t.tables
  end
