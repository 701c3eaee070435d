open Bp_util
open Bp_geometry
module Graph = Bp_graph.Graph
module Spec = Bp_kernel.Spec
module Port = Bp_kernel.Port
module Machine = Bp_machine.Machine
module Dataflow = Bp_analysis.Dataflow
module Stream = Bp_analysis.Stream
module Buffer = Bp_kernels.Buffer
module Split_join = Bp_kernels.Split_join

type reason = Cpu_bound | Memory_bound | Capped_by_dependency

type decision = {
  original : string;
  degree : int;
  reason : reason;
  replicas : Graph.node_id list;
}

let required_cycles_per_s an machine id =
  let info = Dataflow.info_of an id in
  match info.Dataflow.rate with
  | None -> 0.
  | Some rate ->
    let pe = machine.Machine.pe in
    let per_frame =
      info.Dataflow.compute_cycles_per_frame
      +. (info.Dataflow.read_words_per_frame *. pe.Machine.read_cycles_per_word)
      +. (info.Dataflow.write_words_per_frame *. pe.Machine.write_cycles_per_word)
    in
    per_frame *. Rate.to_hz rate

let buffer_window (n : Graph.node) =
  match n.Graph.spec.Spec.outputs with
  | [ p ] -> p.Port.window
  | _ -> Err.graphf "buffer %s must have one output" n.Graph.name

let buffer_in_channel g (n : Graph.node) =
  match Graph.in_channel g n.Graph.id "in" with
  | Some c -> c
  | None -> Err.graphf "buffer %s input not connected" n.Graph.name

(* A buffer's input stream, read through its input channel in the
   analyzed graph. *)
let buffer_stream an (n : Graph.node) =
  let c = buffer_in_channel (Dataflow.graph an) n in
  Dataflow.stream_of an c.Graph.chan_id

(* How many stripes a buffer needs so each stripe fits one PE's memory and
   keeps up with its input share. *)
let buffer_stripes an machine id =
  let g = Dataflow.graph an in
  let n = Graph.node g id in
  let pe = machine.Machine.pe in
  let window = buffer_window n in
  let frame = (buffer_stream an n).Stream.extent in
  let cpu = required_cycles_per_s an machine id in
  let degree_cpu =
    int_of_float (Float.ceil (cpu /. Machine.usable_cycles_per_s machine))
  in
  let fits parts =
    if parts = 1 then Spec.memory_words n.Graph.spec <= pe.Machine.mem_words
    else
      match
        Err.guard (fun () ->
            Split_join.stripe_ranges ~frame_w:frame.Size.w ~window ~parts)
      with
      | Error _ -> false
      | Ok ranges ->
        Array.for_all
          (fun (c0, c1) ->
            let cfg =
              Buffer.config ~out_window:window
                ~frame:(Size.v (c1 - c0) frame.Size.h)
                ()
            in
            Spec.memory_words (Buffer.spec cfg) <= pe.Machine.mem_words)
          ranges
  in
  let rec min_parts m =
    if m > 64 then
      Err.resourcef "buffer %s cannot be split to fit PE memory" n.Graph.name
    else if fits m then m
    else min_parts (m + 1)
  in
  let mem_parts = min_parts 1 in
  (max mem_parts (max 1 degree_cpu), if mem_parts > degree_cpu then Memory_bound else Cpu_bound)

let degree_of an machine id =
  let g = Dataflow.graph an in
  let n = Graph.node g id in
  match n.Graph.spec.Spec.role with
  | Spec.Buffer -> fst (buffer_stripes an machine id)
  | Spec.Compute ->
    let cpu = required_cycles_per_s an machine id in
    max 1
      (int_of_float (Float.ceil (cpu /. Machine.usable_cycles_per_s machine)))
  | Spec.Source | Spec.Const_source | Spec.Sink | Spec.Split | Spec.Join
  | Spec.Inset | Spec.Pad | Spec.Replicate ->
    1

(* Degree after data-dependency capping: deg(dst) <= deg(src); a source
   contributes degree 1 (one instance per input frame). Iterated to a
   fixpoint since dependency chains compose. *)
let capped_degrees an machine =
  let g = Dataflow.graph an in
  let degrees = Hashtbl.create 32 in
  List.iter
    (fun (n : Graph.node) ->
      Hashtbl.replace degrees n.Graph.id (degree_of an machine n.Graph.id))
    (Graph.nodes g);
  let capped = Hashtbl.create 8 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (d : Graph.dep) ->
        let src_deg =
          let n = Graph.node g d.Graph.dep_src in
          match n.Graph.spec.Spec.role with
          | Spec.Source -> 1
          | _ -> Hashtbl.find degrees d.Graph.dep_src
        in
        let dst_deg = Hashtbl.find degrees d.Graph.dep_dst in
        if dst_deg > src_deg then begin
          Hashtbl.replace degrees d.Graph.dep_dst src_deg;
          Hashtbl.replace capped d.Graph.dep_dst ();
          changed := true
        end)
      (Graph.deps g)
  done;
  (degrees, capped)

(* --- Pipeline chains (Section IV-B, second use of dependency edges) ----

   A dependency edge between two kernels that are also stream neighbours
   declares a *pipeline*: the downstream kernel's instances are tied
   one-to-one to the upstream kernel's (state flows along each pipeline),
   so the whole chain replicates together, point-to-point, instead of
   being re-split between stages. *)

let pipeline_chains an =
  let g = Dataflow.graph an in
  let dep_pairs =
    List.filter_map
      (fun (d : Graph.dep) ->
        let src = Graph.node g d.Graph.dep_src in
        let dst = Graph.node g d.Graph.dep_dst in
        (* A chain link: compute -> compute, and the dep follows the
           stream. The downstream stage must be single-(driving-)input and
           single-consumer so the point-to-point rewiring is well defined. *)
        if
          src.Graph.spec.Spec.role = Spec.Compute
          && dst.Graph.spec.Spec.role = Spec.Compute
          && List.mem d.Graph.dep_src (Graph.predecessors g d.Graph.dep_dst)
          && List.length (Graph.in_channels g d.Graph.dep_dst) = 1
          && List.length (Graph.out_channels g d.Graph.dep_src ()) = 1
        then Some (d.Graph.dep_src, d.Graph.dep_dst)
        else None)
      (Graph.deps g)
  in
  let continues id = List.exists (fun (_, dst) -> dst = id) dep_pairs in
  let next_of id =
    List.find_map
      (fun (src, dst) -> if src = id then Some dst else None)
      dep_pairs
  in
  (* Chains start at a link source that is not itself a continuation. *)
  let heads =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun (src, _) -> if continues src then None else Some src)
         dep_pairs)
  in
  List.map
    (fun head ->
      let rec follow id acc =
        match next_of id with
        | Some next -> follow next (next :: acc)
        | None -> List.rev acc
      in
      follow head [ head ])
    heads

let out_port_name (spec : Spec.t) =
  match spec.Spec.outputs with
  | [ p ] -> p.Port.name
  | _ -> Err.graphf "pipeline stage must have one output"

(* Each rewrite below is staged: [rewrite g ...] makes all its checks,
   in order, without touching [g]; applying the result rewrites [g]. *)
let check_only (_rewrite : unit -> Graph.node_id list) = ()

(* Replicate a whole chain [d] ways: split before the first stage, the
   stages of each pipeline wired point-to-point, join after the last. *)
let replicate_chain g chain d =
  let nodes = List.map (Graph.node g) chain in
  let first = List.hd nodes and last = List.hd (List.rev nodes) in
  let driving_input (n : Graph.node) =
    (* The single stream input that is not a replicated/config port. *)
    match
      List.filter
        (fun (p : Port.t) -> not p.Port.replicated)
        n.Graph.spec.Spec.inputs
    with
    | [ p ] -> p
    | _ -> Err.graphf "pipeline stage %s must have one driving input" n.Graph.name
  in
  let first_in = driving_input first in
  let first_in_c =
    match Graph.in_channel g first.Graph.id first_in.Port.name with
    | Some c -> c
    | None -> Err.graphf "pipeline head %s not connected" first.Graph.name
  in
  let out_port =
    match last.Graph.spec.Spec.outputs with
    | [ p ] -> p
    | _ -> Err.graphf "pipeline tail %s must have one output" last.Graph.name
  in
  (* The checks that building each pipeline below makes. *)
  for k = 0 to d - 1 do
    List.map
      (fun (n : Graph.node) ->
        let rspec = Spec.replica_spec n.Graph.spec ~replica:k ~ways:d in
        ignore (driving_input n);
        rspec)
      nodes
    |> List.rev |> List.tl
    |> List.iter (fun rspec -> ignore (out_port_name rspec))
  done;
  let out_cs = Graph.out_channels g last.Graph.id () in
  let entry = (first_in_c.Graph.src.Graph.node, first_in_c.Graph.src.Graph.port) in
  let exits =
    List.map
      (fun (c : Graph.channel) ->
        (c.Graph.capacity, (c.Graph.dst.Graph.node, c.Graph.dst.Graph.port)))
      out_cs
  in
  (* Capture each stage's replicated (config) feeds before removal. *)
  let config_feeds =
    List.map
      (fun (n : Graph.node) ->
        List.filter_map
          (fun (p : Port.t) ->
            if p.Port.replicated then
              Option.map
                (fun (c : Graph.channel) ->
                  (p, (c.Graph.src.Graph.node, c.Graph.src.Graph.port)))
                (Graph.in_channel g n.Graph.id p.Port.name)
            else None)
          n.Graph.spec.Spec.inputs)
      nodes
  in
  fun () ->
    List.iter (fun (n : Graph.node) -> Graph.remove_node g n.Graph.id) nodes;
    let split =
      Graph.add g
        ~name:(Printf.sprintf "Split(pipeline %s)" first.Graph.name)
        ~meta:(Graph.Split_meta { ways = d })
        (Split_join.split ~window:first_in.Port.window ~ways:d ())
    in
    Graph.connect g ~capacity:first_in_c.Graph.capacity ~from:entry
      ~into:(split, "in");
    let join =
      Graph.add g
        ~name:(Printf.sprintf "Join(pipeline %s)" last.Graph.name)
        ~meta:(Graph.Join_meta { ways = d })
        (Split_join.join ~window:out_port.Port.window ~ways:d ())
    in
    let pipelines =
      List.init d (fun k ->
          let stage_ids =
            List.map2
              (fun (n : Graph.node) feeds ->
                let rspec = Spec.replica_spec n.Graph.spec ~replica:k ~ways:d in
                let id =
                  Graph.add g
                    ~name:(Printf.sprintf "%s_%d" n.Graph.name k)
                    rspec
                in
                (* Config ports fan out from their constant producers. *)
                List.iter
                  (fun ((p : Port.t), from) ->
                    Graph.connect g ~from ~into:(id, p.Port.name))
                  feeds;
                (id, driving_input n))
              nodes config_feeds
          in
          (* Wire the stages of this pipeline point-to-point. *)
          let rec wire = function
            | (a, _) :: ((b, b_in) :: _ as rest) ->
              Graph.connect g
                ~from:(a, out_port_name (Graph.node g a).Graph.spec)
                ~into:(b, b_in.Port.name);
              wire rest
            | _ -> ()
          in
          wire stage_ids;
          let head_id, head_in = List.hd stage_ids in
          Graph.connect g
            ~from:(split, Printf.sprintf "out%d" k)
            ~into:(head_id, head_in.Port.name);
          let tail_id, _ = List.hd (List.rev stage_ids) in
          Graph.connect g
            ~from:(tail_id, out_port.Port.name)
            ~into:(join, Printf.sprintf "in%d" k);
          List.map fst stage_ids)
      |> List.concat
    in
    List.iter
      (fun (capacity, into) ->
        Graph.connect g ~capacity ~from:(join, "out") ~into)
      exits;
    pipelines

(* Rewrite one data-parallel compute node into [d] replicas with
   split/join/replicate plumbing. *)
let replicate_compute g (n : Graph.node) d =
  let spec = n.Graph.spec in
  let in_channels =
    List.map
      (fun (p : Port.t) ->
        match Graph.in_channel g n.Graph.id p.Port.name with
        | Some c -> (p, c)
        | None -> Err.graphf "%s.%s not connected" n.Graph.name p.Port.name)
      spec.Spec.inputs
  in
  for k = 0 to d - 1 do
    ignore (Spec.replica_spec spec ~replica:k ~ways:d)
  done;
  let base_name = n.Graph.name in
  let out_channels =
    List.map
      (fun (p : Port.t) ->
        match Graph.out_channels g n.Graph.id ~port:p.Port.name () with
        | [] -> Err.graphf "%s.%s drives nothing" base_name p.Port.name
        | cs -> (p, cs))
      spec.Spec.outputs
  in
  fun () ->
    Graph.remove_node g n.Graph.id;
    let replicas =
      List.init d (fun k ->
          let rspec = Spec.replica_spec spec ~replica:k ~ways:d in
          Graph.add g ~name:(Printf.sprintf "%s_%d" base_name k) rspec)
    in
    (* Inputs: split or replicate. *)
    List.iter
      (fun ((p : Port.t), (c : Graph.channel)) ->
        (* The channel itself disappeared with the removed node; only its
           endpoints matter now. *)
        let from = (c.Graph.src.Graph.node, c.Graph.src.Graph.port) in
        if p.Port.replicated then begin
          let rep =
            Graph.add g
              ~name:(Printf.sprintf "Replicate(%s.%s)" base_name p.Port.name)
              (Split_join.replicate ~window:p.Port.window ())
          in
          Graph.connect g ~capacity:c.Graph.capacity ~from ~into:(rep, "in");
          List.iter
            (fun r ->
              Graph.connect g ~capacity:c.Graph.capacity ~from:(rep, "out")
                ~into:(r, p.Port.name))
            replicas
        end
        else begin
          let split =
            Graph.add g
              ~name:(Printf.sprintf "Split(%s.%s)" base_name p.Port.name)
              ~meta:(Graph.Split_meta { ways = d })
              (Split_join.split ~window:p.Port.window ~ways:d ())
          in
          Graph.connect g ~capacity:c.Graph.capacity ~from ~into:(split, "in");
          List.iteri
            (fun k r ->
              Graph.connect g ~capacity:c.Graph.capacity
                ~from:(split, Printf.sprintf "out%d" k)
                ~into:(r, p.Port.name))
            replicas
        end)
      in_channels;
    (* Outputs: join, then restore the original fan-out. *)
    List.iter
      (fun ((p : Port.t), (cs : Graph.channel list)) ->
        let join =
          Graph.add g
            ~name:(Printf.sprintf "Join(%s.%s)" base_name p.Port.name)
            ~meta:(Graph.Join_meta { ways = d })
            (Split_join.join ~window:p.Port.window ~ways:d ())
        in
        List.iteri
          (fun k r ->
            Graph.connect g
              ~from:(r, p.Port.name)
              ~into:(join, Printf.sprintf "in%d" k))
          replicas;
        List.iter
          (fun (c : Graph.channel) ->
            Graph.connect g ~capacity:c.Graph.capacity ~from:(join, "out")
              ~into:(c.Graph.dst.Graph.node, c.Graph.dst.Graph.port))
          cs)
      out_channels;
    replicas

(* Rewrite one buffer into [m] column stripes (Figure 10). [s] is the
   buffer's input stream as the pre-rewrite analysis saw it: a rewrite of
   the buffer's producer replaces its input channel, but not the stream
   that channel carries. *)
let split_buffer g (n : Graph.node) s m =
  let window = buffer_window n in
  if not (Size.equal s.Stream.chunk Size.one) then
    Err.unsupportedf "buffer %s: only pixel-fed buffers can be split"
      n.Graph.name;
  let frame = s.Stream.extent in
  let ranges =
    Split_join.stripe_ranges ~frame_w:frame.Size.w ~window ~parts:m
  in
  Array.iteri
    (fun k (c0, _) ->
      if k > 0 && c0 > snd ranges.(k - 1) then
        Err.unsupportedf
          "buffer %s: stripes %d and %d leave a gap; stepped buffers \
           cannot be split"
          n.Graph.name (k - 1) k)
    ranges;
  let pattern =
    Split_join.stripe_windows_per_row ~frame_w:frame.Size.w ~window ~ranges
  in
  let in_c = buffer_in_channel g n in
  let out_cs = Graph.out_channels g n.Graph.id ~port:"out" () in
  let base_name = n.Graph.name in
  let from = (in_c.Graph.src.Graph.node, in_c.Graph.src.Graph.port) in
  let outs =
    List.map
      (fun (c : Graph.channel) ->
        (c.Graph.capacity, (c.Graph.dst.Graph.node, c.Graph.dst.Graph.port)))
      out_cs
  in
  fun () ->
    Graph.remove_node g n.Graph.id;
    let split =
      Graph.add g
        ~name:(Printf.sprintf "Split(%s)" base_name)
        ~meta:(Graph.Column_split_meta { ranges })
        (Split_join.column_split ~ranges ~frame ())
    in
    Graph.connect g ~capacity:in_c.Graph.capacity ~from ~into:(split, "in");
    let subs =
      Array.to_list
        (Array.mapi
           (fun k (c0, c1) ->
             let cfg =
               Buffer.config ~out_window:window
                 ~frame:(Size.v (c1 - c0) frame.Size.h)
                 ()
             in
             let sub =
               Graph.add g
                 ~meta:(Graph.Buffer_meta { storage = Buffer.storage cfg })
                 (Buffer.spec cfg)
             in
             Graph.connect g
               ~from:(split, Printf.sprintf "out%d" k)
               ~into:(sub, "in");
             sub)
           ranges)
    in
    let join =
      Graph.add g
        ~name:(Printf.sprintf "Join(%s)" base_name)
        ~meta:(Graph.Pattern_join_meta { pattern; out_extent = frame })
        (Split_join.join ~pattern ~window ~ways:m ())
    in
    List.iteri
      (fun k sub ->
        Graph.connect g ~from:(sub, "out") ~into:(join, Printf.sprintf "in%d" k))
      subs;
    List.iter
      (fun (capacity, into) ->
        Graph.connect g ~capacity ~from:(join, "out") ~into)
      outs;
    subs

let run machine g =
  let an = Dataflow.analyze g in
  (* Everything is decided against the pre-rewrite analysis: detect
     pipeline chains, compute degrees and dependency caps, snapshot the
     node list, record the input stream of each buffer to split, check
     every rewrite — only then mutate the graph. *)
  let chains = pipeline_chains an in
  let chain_members = List.concat chains |> List.sort_uniq Int.compare in
  let in_chain id = List.mem id chain_members in
  let original_nodes = Graph.nodes g in
  let degrees, capped = capped_degrees an machine in
  let chain_plan =
    List.filter_map
      (fun chain ->
        let d =
          List.fold_left
            (fun acc id -> max acc (degree_of an machine id))
            1 chain
        in
        if d < 2 then None
        else begin
          check_only (replicate_chain g chain d);
          Some (chain, d)
        end)
      chains
  in
  let rewrite_chains () =
    List.map
      (fun (chain, d) ->
        let head = Graph.node g (List.hd chain) in
        {
          original = Printf.sprintf "pipeline(%s)" head.Graph.name;
          degree = d;
          reason = Cpu_bound;
          replicas = replicate_chain g chain d ();
        })
      chain_plan
  in
  let pe = machine.Machine.pe in
  let plan =
    List.filter_map
      (fun (n : Graph.node) ->
        if in_chain n.Graph.id then None
        else
        let d = Hashtbl.find degrees n.Graph.id in
        match n.Graph.spec.Spec.role with
        | Spec.Buffer ->
          let _, reason = buffer_stripes an machine n.Graph.id in
          if d > 1 then
            let s = buffer_stream an n in
            Some (n, d, reason, fun () -> split_buffer g n s d)
          else None
        | Spec.Compute ->
          if Spec.memory_words n.Graph.spec > pe.Machine.mem_words then
            Err.resourcef "kernel %s does not fit in PE memory (%d > %d)"
              n.Graph.name
              (Spec.memory_words n.Graph.spec)
              pe.Machine.mem_words;
          if d > 1 then begin
            (match n.Graph.spec.Spec.parallelization with
            | Spec.Serial ->
              Err.schedulef
                "serial kernel %s needs %d PEs worth of throughput"
                n.Graph.name d
            | Spec.Data_parallel | Spec.Custom _ -> ());
            let reason =
              if Hashtbl.mem capped n.Graph.id then Capped_by_dependency
              else Cpu_bound
            in
            Some (n, d, reason, fun () -> replicate_compute g n d)
          end
          else None
        | _ -> None)
      original_nodes
  in
  (* [stage ()] stages an entry's rewrite on the graph as it stands: once
     here for its checks, and again when it is applied, after earlier
     rewrites may have replaced the entry's channels. *)
  List.iter (fun (_, _, _, stage) -> check_only (stage ())) plan;
  let chain_decisions = rewrite_chains () in
  chain_decisions
  @ List.map
      (fun ((n : Graph.node), d, reason, stage) ->
        let rewrite = stage () in
        { original = n.Graph.name; degree = d; reason; replicas = rewrite () })
      plan
