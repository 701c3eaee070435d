(** A fixed-capacity circular FIFO backed by one preallocated array.

    The channel representation of the simulator: a bounded channel of
    capacity [n] costs exactly one [n]-slot array for the whole run, with
    no per-element heap cells (unlike [Queue.t], which allocates a cons
    cell per push). [pop] overwrites the vacated slot with the [dummy]
    element supplied at creation, so the ring never pins popped items —
    in steady state a simulation's channels allocate nothing at all.

    Bounds are the caller's contract: [push] on a full ring and [pop]/
    [peek] on an empty one raise [Invalid_argument]. The simulator always
    guards with {!space} / {!is_empty} first, exactly as kernels guard
    with [Behaviour.io.space]. *)

type 'a t

val create : capacity:int -> dummy:'a -> 'a t
(** A ring holding at most [capacity] elements. [dummy] fills empty
    slots; it is never returned. Raises if [capacity < 1]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val is_full : 'a t -> bool

val space : 'a t -> int
(** Free slots: [capacity - length]. *)

val peek : 'a t -> 'a
(** The front element, without consuming. Raises if empty. *)

val push : 'a t -> 'a -> unit
(** Append at the back. Raises if full. *)

val pop : 'a t -> 'a
(** Consume the front element and clear its slot. Raises if empty. *)
