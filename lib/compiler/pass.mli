(** The staged pass manager.

    A compilation is a sequence of named passes over a shared mutable
    state. Each pass owns:

    - a {b name}, used for timing tables, diagnostics provenance,
      [--dump-after] and error wrapping;
    - a {b run function} that mutates the state;
    - {b post-invariants}: checks that run at the pass barrier,
      immediately after the pass that could break them — not once at the
      end of the whole pipeline.

    The manager ({!run_all}) measures each pass with the monotonic clock
    ({!Bp_util.Clock}), records a {!timing} {e even when the pass fails}
    (the partial timing lands in the caller's accumulator before the
    error propagates), converts any {!Bp_util.Err.Error} escaping a pass
    body or invariant into an error-severity diagnostic carrying the
    pass's name, and re-raises the error wrapped with that name. [Err]
    therefore only ever crosses the pass barrier: inside the flow,
    failures are data ({!Bp_util.Diag.t}) first.

    The pass windows tile {!run_all}: the first opens at entry and each
    later one where the previous closed, so the manager's own
    bookkeeping (graph counts, timing records, diagnostics) is charged
    to the passes and the timings add up to the call. Only the
    caller's [after_pass] hook falls outside every window. *)

type timing = {
  pass : string;  (** Pass name. *)
  wall_s : float;
      (** Monotonic seconds spent in the pass, invariants and the pass
          manager's bookkeeping included. Never negative. *)
  nodes_before : int;
  nodes_after : int;
  channels_before : int;
  channels_after : int;
}
(** One pass's wall time and graph-size delta — the compiler half of the
    observability contract (docs/OBSERVABILITY.md). Exported to Chrome
    trace JSON by {!Bp_obs.Chrome_trace} and to metrics by
    {!Bp_obs.Instrument.record_compile}. *)

type 'state invariant = string * ('state -> unit)
(** A named post-condition; raises {!Bp_util.Err.Error} on violation. *)

type 'state t
(** A pass over a ['state]. *)

val v :
  ?invariants:'state invariant list ->
  string ->
  ('state -> unit) ->
  'state t
(** [v name run] is a pass. [invariants] default to none. *)

val run_all :
  graph:('state -> Bp_graph.Graph.t) ->
  diags:Bp_util.Diag.buffer ->
  timings:timing list ref ->
  ?after_pass:(pass:string -> 'state -> unit) ->
  'state ->
  'state t list ->
  unit
(** Run the passes in order. [graph] projects the state's graph for the
    before/after node and channel counts. The timings are appended to
    [timings] in execution order when [run_all] returns or raises —
    including the failing pass, so a crash still leaves a full record.
    [after_pass] (default: nothing) is called after each successful pass
    barrier — the [--dump-after] hook; it must not change the graph.

    On a failure in pass [p] (body or invariant), an error-severity
    diagnostic with [pass = p] is appended to [diags] and the original
    {!Bp_util.Err.Error} is re-raised with its message prefixed
    ["pass <p>: "] (["pass <p>/<invariant>: "] for an invariant) — the
    error class is preserved so callers can still match on it. *)
