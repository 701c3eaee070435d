(* Binary min-heap over (time, seq) with FIFO tie-breaking.

   The representation is three parallel arrays rather than an array of
   entry records: [times] is a float array, so times live unboxed, and a
   push/pop pair allocates nothing once the arrays have grown to the
   working size. The simulator pops one event per simulated step, so a
   per-entry record (and the option/tuple a record-based [pop] returns)
   would be a steady per-event allocation — see docs/PERFORMANCE.md.

   Popped value slots are overwritten with [dummy] so the heap never
   pins a dead event (and transitively its simulated items). *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  dummy : 'a;
  mutable size : int;
  mutable next_seq : int;
}

let create ~dummy () =
  { times = [||]; seqs = [||]; values = [||]; dummy; size = 0; next_seq = 0 }

let is_empty t = t.size = 0
let size t = t.size

let less t i j =
  t.times.(i) < t.times.(j)
  || (Float.equal t.times.(i) t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let tt = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tt;
  let ts = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- ts;
  let tv = t.values.(i) in
  t.values.(i) <- t.values.(j);
  t.values.(j) <- tv

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less t l !smallest then smallest := l;
  if r < t.size && less t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow_if_full t =
  if t.size = Array.length t.values then begin
    let cap = max 16 (2 * Array.length t.values) in
    let times = Array.make cap 0. in
    let seqs = Array.make cap 0 in
    let values = Array.make cap t.dummy in
    Array.blit t.times 0 times 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.values 0 values 0 t.size;
    t.times <- times;
    t.seqs <- seqs;
    t.values <- values
  end

let push_seq t ~time ~seq value =
  grow_if_full t;
  t.times.(t.size) <- time;
  t.seqs.(t.size) <- seq;
  t.values.(t.size) <- value;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let reserve_seq t =
  let s = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  s

let push t ~time value = push_seq t ~time ~seq:(reserve_seq t) value

let front_time_exn t =
  if t.size = 0 then invalid_arg "Heap.front_time_exn: empty";
  t.times.(0)

let pop_value_exn t =
  if t.size = 0 then invalid_arg "Heap.pop_value_exn: empty";
  let v = t.values.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.times.(0) <- t.times.(t.size);
    t.seqs.(0) <- t.seqs.(t.size);
    t.values.(0) <- t.values.(t.size);
    t.values.(t.size) <- t.dummy;
    sift_down t 0
  end
  else t.values.(0) <- t.dummy;
  v

let pop t =
  if t.size = 0 then None
  else
    let time = t.times.(0) in
    Some (time, pop_value_exn t)
