open Bp_util
module Graph = Bp_graph.Graph

type timing = {
  pass : string;
  wall_s : float;
  nodes_before : int;
  nodes_after : int;
  channels_before : int;
  channels_after : int;
}

type 'state invariant = string * ('state -> unit)

type 'state t = {
  pass_name : string;
  run : 'state -> unit;
  invariants : 'state invariant list;
}

let v ?(invariants = []) pass_name run = { pass_name; run; invariants }

(* Same constructor, message prefixed with the pass name, so callers can
   still match on the error class. *)
let wrap_err ~pass e =
  let prefix s = Printf.sprintf "pass %s: %s" pass s in
  match (e : Err.t) with
  | Err.Invalid_parameterization s -> Err.Invalid_parameterization (prefix s)
  | Err.Graph_malformed s -> Err.Graph_malformed (prefix s)
  | Err.Rate_mismatch s -> Err.Rate_mismatch (prefix s)
  | Err.Alignment_error s -> Err.Alignment_error (prefix s)
  | Err.Resource_exhausted s -> Err.Resource_exhausted (prefix s)
  | Err.Not_schedulable s -> Err.Not_schedulable (prefix s)
  | Err.Unsupported s -> Err.Unsupported (prefix s)

(* The pass barrier: run the body, then every post-invariant, wrapping
   an escaping error with the name of whichever failed. *)
let run_checked p state =
  (match Err.guard (fun () -> p.run state) with
  | Ok () -> ()
  | Error e -> Err.fail (wrap_err ~pass:p.pass_name e));
  List.iter
    (fun (inv_name, check) ->
      match Err.guard (fun () -> check state) with
      | Ok () -> ()
      | Error e -> Err.fail (wrap_err ~pass:(p.pass_name ^ "/" ^ inv_name) e))
    p.invariants

(* The timing windows tile the call: the first opens at entry, and each
   later one where the previous closed (or where the caller's
   [after_pass] hook returned), so the graph counting, the timing
   record and a failure's diagnostic are charged to a pass instead of
   falling between two. A pass's "before" counts are the previous
   pass's "after" counts: nothing but the hook runs in between. *)
let run_all ~graph ~diags ~timings ?after_pass state passes =
  let counts () =
    let g = graph state in
    (Graph.size g, List.length (Graph.channels g))
  in
  let rec go t0 (nodes_before, channels_before) acc = function
    | [] -> timings := !timings @ List.rev acc
    | p :: rest ->
      let outcome = Err.guard (fun () -> run_checked p state) in
      (match outcome with
      | Ok () -> ()
      | Error e ->
        Diag.add diags
          (Diag.v Diag.Error ~pass:p.pass_name (Err.to_string e)));
      let ((nodes_after, channels_after) as after) = counts () in
      let t1 = Clock.now_s () in
      let acc =
        {
          pass = p.pass_name;
          wall_s = t1 -. t0;
          nodes_before;
          nodes_after;
          channels_before;
          channels_after;
        }
        :: acc
      in
      (match outcome with
      | Ok () -> (
        match after_pass with
        | None -> go t1 after acc rest
        | Some f ->
          f ~pass:p.pass_name state;
          go (Clock.now_s ()) after acc rest)
      | Error e ->
        timings := !timings @ List.rev acc;
        Err.fail e)
  in
  let t0 = Clock.now_s () in
  go t0 (counts ()) [] passes
