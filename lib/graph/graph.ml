open Bp_util
module Int_map = Map.Make (Int)

type node_id = int

type meta =
  | Plain
  | Source_meta of { frame : Bp_geometry.Size.t; rate : Bp_geometry.Rate.t }
  | Buffer_meta of { storage : Bp_geometry.Size.t }
  | Split_meta of { ways : int }
  | Column_split_meta of { ranges : (int * int) array }
  | Join_meta of { ways : int }
  | Pattern_join_meta of {
      pattern : int array;
      out_extent : Bp_geometry.Size.t;
    }
  | Inset_meta of { left : int; right : int; top : int; bottom : int }
  | Pad_meta of { left : int; right : int; top : int; bottom : int }
  | Feedback_init_meta of {
      extent : Bp_geometry.Size.t;
      rate : Bp_geometry.Rate.t;
    }

type node = { id : node_id; name : string; spec : Bp_kernel.Spec.t; meta : meta }
type endpoint = { node : node_id; port : string }

type channel = {
  chan_id : int;
  src : endpoint;
  dst : endpoint;
  capacity : int;
}

type dep = { dep_src : node_id; dep_dst : node_id }

type t = {
  node_gen : Id.gen;
  chan_gen : Id.gen;
  allow_cycles : bool;
  mutable node_map : node Int_map.t;
  mutable chan_map : channel Int_map.t;
  mutable dep_list : dep list;
}

let create ?(allow_cycles = false) () =
  {
    node_gen = Id.make_gen ();
    chan_gen = Id.make_gen ();
    allow_cycles;
    node_map = Int_map.empty;
    chan_map = Int_map.empty;
    dep_list = [];
  }

let default_capacity = 16

let name_taken t name =
  Int_map.exists (fun _ n -> String.equal n.name name) t.node_map

let add ?name ?(meta = Plain) t (spec : Bp_kernel.Spec.t) =
  let id = Id.fresh t.node_gen in
  let name =
    match name with
    | Some n ->
      if name_taken t n then Err.graphf "node name %S already in use" n;
      n
    | None ->
      let base = spec.Bp_kernel.Spec.class_name in
      if not (name_taken t base) then base
      else
        let rec try_suffix k =
          let candidate = Printf.sprintf "%s_%d" base k in
          if name_taken t candidate then try_suffix (k + 1) else candidate
        in
        try_suffix 0
  in
  t.node_map <- Int_map.add id { id; name; spec; meta } t.node_map;
  id

let node t id =
  match Int_map.find_opt id t.node_map with
  | Some n -> n
  | None -> Err.graphf "no node with id %d" id

let node_by_name t name =
  let found =
    Int_map.fold
      (fun _ n acc -> if String.equal n.name name then Some n else acc)
      t.node_map None
  in
  match found with
  | Some n -> n
  | None -> Err.graphf "no node named %S" name

let in_channel t id port =
  Int_map.fold
    (fun _ c acc ->
      if c.dst.node = id && String.equal c.dst.port port then Some c else acc)
    t.chan_map None

let connect ?(capacity = default_capacity) t ~from:(src_id, src_port)
    ~into:(dst_id, dst_port) =
  if capacity < 2 then Err.graphf "channel capacity must be at least 2";
  let src_node = node t src_id and dst_node = node t dst_id in
  ignore (Bp_kernel.Spec.find_output src_node.spec src_port);
  ignore (Bp_kernel.Spec.find_input dst_node.spec dst_port);
  (match in_channel t dst_id dst_port with
  | Some _ ->
    Err.graphf "input %s.%s is already driven" dst_node.name dst_port
  | None -> ());
  let chan_id = Id.fresh t.chan_gen in
  let c =
    {
      chan_id;
      src = { node = src_id; port = src_port };
      dst = { node = dst_id; port = dst_port };
      capacity;
    }
  in
  t.chan_map <- Int_map.add chan_id c t.chan_map

let add_dep t ~src ~dst =
  ignore (node t src);
  ignore (node t dst);
  t.dep_list <- { dep_src = src; dep_dst = dst } :: t.dep_list

let remove_channel t chan_id =
  if not (Int_map.mem chan_id t.chan_map) then
    Err.graphf "no channel with id %d" chan_id;
  t.chan_map <- Int_map.remove chan_id t.chan_map

let remove_node t id =
  ignore (node t id);
  t.node_map <- Int_map.remove id t.node_map;
  t.chan_map <-
    Int_map.filter
      (fun _ c -> c.src.node <> id && c.dst.node <> id)
      t.chan_map;
  t.dep_list <-
    List.filter (fun d -> d.dep_src <> id && d.dep_dst <> id) t.dep_list

let nodes t = List.map snd (Int_map.bindings t.node_map)
let channels t = List.map snd (Int_map.bindings t.chan_map)
let deps t = List.rev t.dep_list

let channel t chan_id =
  match Int_map.find_opt chan_id t.chan_map with
  | Some c -> c
  | None -> Err.graphf "no channel with id %d" chan_id

let in_channels t id = List.filter (fun c -> c.dst.node = id) (channels t)

let out_channels t id ?port () =
  List.filter
    (fun c ->
      c.src.node = id
      && match port with None -> true | Some p -> String.equal c.src.port p)
    (channels t)

let distinct ids = List.sort_uniq Int.compare ids

let predecessors t id =
  distinct
    (List.filter_map
       (fun c -> if c.dst.node = id then Some c.src.node else None)
       (channels t))

let successors t id =
  distinct
    (List.filter_map
       (fun c -> if c.src.node = id then Some c.dst.node else None)
       (channels t))

let dep_sources t id =
  distinct
    (List.filter_map
       (fun d -> if d.dep_dst = id then Some d.dep_src else None)
       t.dep_list)

let with_role role t =
  List.filter (fun n -> n.spec.Bp_kernel.Spec.role = role) (nodes t)

let sources t = with_role Bp_kernel.Spec.Source t
let const_sources t = with_role Bp_kernel.Spec.Const_source t
let sinks t = with_role Bp_kernel.Spec.Sink t

let topological_order t =
  (* Kahn's algorithm; when cycles are allowed, remaining nodes (members of
     cycles) are appended in id order so callers still see every node. *)
  let succ = Hashtbl.create 16 and indeg = Hashtbl.create 16 in
  let all = nodes t in
  List.iter (fun n -> Hashtbl.replace indeg n.id 0) all;
  List.iter
    (fun c ->
      Hashtbl.replace succ c.src.node
        (c.dst.node :: Option.value ~default:[] (Hashtbl.find_opt succ c.src.node));
      Hashtbl.replace indeg c.dst.node
        (1 + Option.value ~default:0 (Hashtbl.find_opt indeg c.dst.node)))
    (channels t);
  let ready =
    ref
      (List.filter_map
         (fun n -> if Hashtbl.find indeg n.id = 0 then Some n.id else None)
         all)
  in
  let order = ref [] in
  let emitted = Hashtbl.create 16 in
  while !ready <> [] do
    match List.sort Int.compare !ready with
    | [] -> ()
    | id :: rest ->
      ready := rest;
      Hashtbl.replace emitted id ();
      order := id :: !order;
      List.iter
        (fun s ->
          let d = Hashtbl.find indeg s - 1 in
          Hashtbl.replace indeg s d;
          if d = 0 then ready := s :: !ready)
        (List.sort_uniq Int.compare
           (Option.value ~default:[] (Hashtbl.find_opt succ id)))
  done;
  let missing = List.filter (fun n -> not (Hashtbl.mem emitted n.id)) all in
  if missing <> [] && not t.allow_cycles then
    Err.graphf "stream graph has a cycle through %s"
      (String.concat ", " (List.map (fun n -> n.name) missing));
  List.map (node t) (List.rev !order) @ missing

let validate t =
  let all = nodes t in
  List.iter
    (fun c ->
      let src = node t c.src.node and dst = node t c.dst.node in
      ignore (Bp_kernel.Spec.find_output src.spec c.src.port);
      ignore (Bp_kernel.Spec.find_input dst.spec c.dst.port))
    (channels t);
  List.iter
    (fun n ->
      let role = n.spec.Bp_kernel.Spec.role in
      (match role with
      | Bp_kernel.Spec.Source | Bp_kernel.Spec.Const_source ->
        if n.spec.Bp_kernel.Spec.inputs <> [] then
          Err.graphf "source %s must have no inputs" n.name
      | Bp_kernel.Spec.Sink ->
        if n.spec.Bp_kernel.Spec.outputs <> [] then
          Err.graphf "sink %s must have no outputs" n.name
      | _ -> ());
      List.iter
        (fun (p : Bp_kernel.Port.t) ->
          match in_channel t n.id p.Bp_kernel.Port.name with
          | Some _ -> ()
          | None ->
            Err.graphf "input %s.%s is not connected" n.name
              p.Bp_kernel.Port.name)
        n.spec.Bp_kernel.Spec.inputs)
    all;
  List.iter
    (fun d ->
      ignore (node t d.dep_src);
      ignore (node t d.dep_dst))
    t.dep_list;
  ignore (topological_order t)

let size t = Int_map.cardinal t.node_map

let copy t =
  {
    node_gen =
      (let g = Id.make_gen () in
       Id.reserve g (Id.peek t.node_gen);
       g);
    chan_gen =
      (let g = Id.make_gen () in
       Id.reserve g (Id.peek t.chan_gen);
       g);
    allow_cycles = t.allow_cycles;
    node_map = t.node_map;
    chan_map = t.chan_map;
    dep_list = t.dep_list;
  }

let role_string = function
  | Bp_kernel.Spec.Source -> "source"
  | Bp_kernel.Spec.Const_source -> "const"
  | Bp_kernel.Spec.Sink -> "sink"
  | Bp_kernel.Spec.Compute -> "compute"
  | Bp_kernel.Spec.Buffer -> "buffer"
  | Bp_kernel.Spec.Split -> "split"
  | Bp_kernel.Spec.Join -> "join"
  | Bp_kernel.Spec.Inset -> "inset"
  | Bp_kernel.Spec.Pad -> "pad"
  | Bp_kernel.Spec.Replicate -> "replicate"

let pp_summary ppf t =
  Format.fprintf ppf "graph: %d nodes, %d channels, %d deps@," (size t)
    (List.length (channels t))
    (List.length t.dep_list);
  List.iter
    (fun n ->
      Format.fprintf ppf "  [%d] %-24s %-9s in:%d out:%d@," n.id n.name
        (role_string n.spec.Bp_kernel.Spec.role)
        (List.length (in_channels t n.id))
        (List.length (out_channels t n.id ())))
    (nodes t)
