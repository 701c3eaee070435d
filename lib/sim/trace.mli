(** Execution traces.

    A recorder for the simulator's {!Sim.run} [observer] hook: it collects
    every kernel firing (start time, processor, kernel, method, service
    time) and renders them as a per-processor text Gantt chart — the
    debugging view for "why is this PE underutilized" questions that
    Figure 12 answers statically. *)

type firing = {
  at_s : float;
  proc : int;
  kernel : string;
  method_name : string;
  service_s : float;
}

type t

val recorder :
  unit ->
  t
  * (time_s:float ->
    proc:int ->
    node:Bp_graph.Graph.node ->
    method_name:string ->
    service_s:float ->
    unit)
(** A fresh trace and the observer to pass to {!Sim.run}. *)

val firings : t -> firing list
(** All recorded firings in time order. *)

val gantt : t -> string
(** An ASCII Gantt chart of the whole trace, one row per processor: each
    of its 72 columns is a time slice, [#] busy, [.] idle. *)
