open Bp_util

type role =
  | Source
  | Const_source
  | Sink
  | Compute
  | Buffer
  | Split
  | Join
  | Inset
  | Pad
  | Replicate

type t = {
  class_name : string;
  role : role;
  inputs : Port.t list;
  outputs : Port.t list;
  methods : Method_spec.t list;
  state_words : int;
  token_budgets : Bp_token.Token.Bound.budget list;
  parallelization : parallelization;
  emission_burst : int;
  make_behaviour : unit -> Behaviour.t;
}

and parallelization =
  | Data_parallel
  | Serial
  | Custom of (replica:int -> ways:int -> t)

let check_distinct what names =
  let sorted = List.sort_uniq String.compare names in
  if List.length sorted <> List.length names then
    Err.graphf "duplicate %s names" what

let port_names ports = List.map (fun p -> p.Port.name) ports

let validate t =
  check_distinct "input port" (port_names t.inputs);
  check_distinct "output port" (port_names t.outputs);
  check_distinct "method"
    (List.map (fun m -> m.Method_spec.name) t.methods);
  let in_names = port_names t.inputs and out_names = port_names t.outputs in
  let check_in m i =
    if not (List.mem i in_names) then
      Err.graphf "kernel %s method %s: unknown input %S" t.class_name
        m.Method_spec.name i
  in
  let check_out m o =
    if not (List.mem o out_names) then
      Err.graphf "kernel %s method %s: unknown output %S" t.class_name
        m.Method_spec.name o
  in
  List.iter
    (fun m ->
      List.iter (check_in m) (Method_spec.trigger_inputs m);
      List.iter (check_out m) m.Method_spec.outputs)
    t.methods;
  (* Data-method triggers must be disjoint, and every input must be drained
     by some data method (sources have no inputs; custom roles are exempt
     because their behaviours poll explicitly). *)
  if t.role = Compute then begin
    let data_triggers =
      List.filter_map
        (fun m ->
          match m.Method_spec.trigger with
          | Method_spec.On_data inputs -> Some inputs
          | Method_spec.On_token _ -> None)
        t.methods
    in
    let all = List.concat data_triggers in
    check_distinct "data-method trigger input" all;
    List.iter
      (fun i ->
        if not (List.mem i all) then
          Err.graphf
            "kernel %s: input %S is not consumed by any data method"
            t.class_name i)
      in_names
  end;
  t

let v ?(role = Compute) ?(state_words = 0) ?(token_budgets = [])
    ?(parallelization = Data_parallel) ?(emission_burst = 1) ~class_name
    ~inputs ~outputs ~methods ~make_behaviour () =
  if state_words < 0 then Err.invalidf "negative state_words";
  if emission_burst < 1 then Err.invalidf "emission_burst must be positive";
  (* Every user-token trigger must come with a rate bound. *)
  List.iter
    (fun m ->
      match m.Method_spec.trigger with
      | Method_spec.On_token (_, (Bp_token.Token.User _ as kind)) ->
        let declared =
          List.exists
            (fun (b : Bp_token.Token.Bound.budget) ->
              Bp_token.Token.kind_equal b.Bp_token.Token.Bound.kind kind)
            token_budgets
        in
        if not declared then
          Err.invalidf
            "kernel %s: method %s handles a user token without a declared \
             rate bound"
            class_name m.Method_spec.name
      | _ -> ())
    methods;
  validate
    {
      class_name;
      role;
      inputs;
      outputs;
      methods;
      state_words;
      token_budgets;
      parallelization;
      emission_burst;
      make_behaviour;
    }

let user_token_budget t kind =
  List.find_map
    (fun (b : Bp_token.Token.Bound.budget) ->
      if Bp_token.Token.kind_equal b.Bp_token.Token.Bound.kind kind then
        Some b.Bp_token.Token.Bound.max_per_frame
      else None)
    t.token_budgets

let find_input t name = Port.find t.inputs name
let find_output t name = Port.find t.outputs name

let find_method t name =
  match
    List.find_opt (fun m -> String.equal m.Method_spec.name name) t.methods
  with
  | Some m -> m
  | None -> Err.graphf "kernel %s: no method %S" t.class_name name

let memory_words t =
  t.state_words
  + List.fold_left (fun acc p -> acc + Port.buffer_words p) 0 t.inputs
  + List.fold_left (fun acc p -> acc + Port.buffer_words p) 0 t.outputs

let replica_spec t ~replica ~ways =
  match t.parallelization with
  | Data_parallel -> t
  | Custom f -> f ~replica ~ways
  | Serial ->
    Err.unsupportedf "kernel %s is serial and cannot be replicated"
      t.class_name
