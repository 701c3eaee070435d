open Bp_util
module Graph = Bp_graph.Graph
module Spec = Bp_kernel.Spec

type t = {
  groups : Graph.node_id list array;
  proc_of : (Graph.node_id, int) Hashtbl.t;
}

let is_on_chip (n : Graph.node) =
  match n.Graph.spec.Spec.role with
  | Spec.Source | Spec.Const_source | Spec.Sink -> false
  | Spec.Compute | Spec.Buffer | Spec.Split | Spec.Join | Spec.Inset
  | Spec.Pad | Spec.Replicate ->
    true

let of_groups g groups =
  let proc_of = Hashtbl.create 64 in
  List.iteri
    (fun proc ids ->
      List.iter
        (fun id ->
          let n = Graph.node g id in
          if not (is_on_chip n) then
            Err.graphf "node %s is off-chip and cannot be mapped" n.Graph.name;
          if Hashtbl.mem proc_of id then
            Err.graphf "node %s mapped twice" n.Graph.name;
          Hashtbl.replace proc_of id proc)
        ids)
    groups;
  List.iter
    (fun (n : Graph.node) ->
      if is_on_chip n && not (Hashtbl.mem proc_of n.Graph.id) then
        Err.graphf "node %s is not mapped to any processor" n.Graph.name)
    (Graph.nodes g);
  { groups = Array.of_list groups; proc_of }

let one_to_one g =
  of_groups g
    (List.filter_map
       (fun (n : Graph.node) ->
         if is_on_chip n then Some [ n.Graph.id ] else None)
       (Graph.nodes g))

let processors t = Array.length t.groups
let nodes_on t proc = t.groups.(proc)
let processor_of t id = Hashtbl.find_opt t.proc_of id
