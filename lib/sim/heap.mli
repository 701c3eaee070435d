(** A minimal binary min-heap keyed by (time, sequence).

    The event queue of the simulator. Ties on time break by insertion
    sequence, making runs deterministic. [pop] clears the array slot it
    vacates, so the heap never retains a reference to an entry after
    returning it (popped events — and whatever simulated data they point
    to — are garbage as soon as the caller drops them).

    Times are stored in a plain [float array], so a push/pop pair is
    allocation-free at steady state; the event loop uses
    {!front_time_exn}/{!pop_value_exn} to keep it that way, while {!pop}
    remains as the convenient (allocating) form. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] overwrites vacated value slots; it is never returned. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit
(** Insert an event at [time], stamped with the next sequence number. *)

val reserve_seq : 'a t -> int
(** Claim the next sequence number without inserting anything. The
    quasi-static engine reserves an event's tie-breaking rank at the
    moment the eager engine would have pushed it, so a wake that is
    elided and later restored by {!push_seq} lands in exactly the heap
    order the eager push would have had. *)

val push_seq : 'a t -> time:float -> seq:int -> 'a -> unit
(** Insert an event at [time] with an explicitly reserved sequence
    number. [push t ~time v] is [push_seq t ~time ~seq:(reserve_seq t) v]. *)

val front_time_exn : 'a t -> float
(** Time of the earliest event. Raises [Invalid_argument] when empty. *)

val pop_value_exn : 'a t -> 'a
(** Remove and return the earliest event (its value only, see
    {!front_time_exn}). Raises [Invalid_argument] when empty. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event with its time. Allocates; the
    hot loop uses {!front_time_exn} + {!pop_value_exn} instead. *)
