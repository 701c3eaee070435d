type 'a t = {
  data : 'a array;
  dummy : 'a;
  mutable head : int;  (* index of the front element *)
  mutable len : int;
}

let create ~capacity ~dummy =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be positive";
  { data = Array.make capacity dummy; dummy; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0
let is_full t = t.len = Array.length t.data
let space t = Array.length t.data - t.len

(* Avoid [mod] (an integer division) on the hot path: indices stay in
   [0, 2*capacity), one conditional subtraction re-wraps them. *)
let[@inline] wrap t i = if i >= Array.length t.data then i - Array.length t.data else i

let peek t =
  if t.len = 0 then invalid_arg "Ring.peek: empty";
  t.data.(t.head)

let push t v =
  if t.len = Array.length t.data then invalid_arg "Ring.push: full";
  t.data.(wrap t (t.head + t.len)) <- v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let v = t.data.(t.head) in
  (* Clear the slot so the ring never keeps popped items alive. *)
  t.data.(t.head) <- t.dummy;
  t.head <- wrap t (t.head + 1);
  t.len <- t.len - 1;
  v
