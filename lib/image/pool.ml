open Bp_geometry

(* A shelf is a LIFO stack of idle images that all share one extent. LIFO
   keeps the hottest (cache-warm) buffer on top. Vacated slots are
   overwritten with a shared dummy so a shelf never pins an image the pool
   has already handed back out. *)
type shelf = { mutable items : Image.t array; mutable n : int }

type t = {
  shelves : (int, shelf) Hashtbl.t;
  (* Last shelf touched, memoized: simulator data planes acquire and
     release one extent (the app's chunk size) almost exclusively, so
     this turns the hashtable probe on the hot path into one compare. *)
  mutable last_key : int;
  mutable last_shelf : shelf option;
  mutable hits : int;
  mutable misses : int;
  mutable releases : int;
}

type stats = { hits : int; misses : int; releases : int; live : int }

let dummy = Image.create Size.one

(* Extents are packed into one immediate int so the shelf lookup allocates
   nothing; [release] keys from the image's width and height, never from
   [Image.size], which would allocate a [Size.t] per call. 2^20 rows is
   far beyond any frame this simulator moves. *)
let key w h =
  if h >= 1 lsl 20 then
    invalid_arg (Printf.sprintf "Pool: image height %d too large" h);
  (w lsl 20) lor h

let create () =
  {
    shelves = Hashtbl.create 16;
    last_key = -1;
    last_shelf = None;
    hits = 0;
    misses = 0;
    releases = 0;
  }

let find_shelf t k =
  if t.last_key = k then t.last_shelf
  else
    match Hashtbl.find_opt t.shelves k with
    | Some _ as found ->
      t.last_key <- k;
      t.last_shelf <- found;
      found
    | None -> None

let acquire t (s : Size.t) =
  match find_shelf t (key s.w s.h) with
  | Some shelf when shelf.n > 0 ->
    let i = shelf.n - 1 in
    let img = shelf.items.(i) in
    shelf.items.(i) <- dummy;
    shelf.n <- i;
    t.hits <- t.hits + 1;
    (* Zero the recycled buffer so pooled and allocation-naive executions
       are bit-identical: [Image.create] also hands out all-zero pixels. *)
    Image.fill img 0.;
    img
  | _ ->
    t.misses <- t.misses + 1;
    Image.create s

let release t img =
  let k = key (Image.width img) (Image.height img) in
  let shelf =
    match find_shelf t k with
    | Some s -> s
    | None ->
      let s = { items = Array.make 8 dummy; n = 0 } in
      Hashtbl.add t.shelves k s;
      t.last_key <- k;
      t.last_shelf <- Some s;
      s
  in
  if shelf.n = Array.length shelf.items then begin
    let grown = Array.make (2 * shelf.n) dummy in
    Array.blit shelf.items 0 grown 0 shelf.n;
    shelf.items <- grown
  end;
  shelf.items.(shelf.n) <- img;
  shelf.n <- shelf.n + 1;
  t.releases <- t.releases + 1

let stats (t : t) : stats =
  {
    hits = t.hits;
    misses = t.misses;
    releases = t.releases;
    live = t.hits + t.misses - t.releases;
  }

let check_no_live_leaks t =
  let s = stats t in
  if s.live <> 0 then
    invalid_arg
      (Printf.sprintf
         "Pool.check_no_live_leaks: %d chunk(s) still live (%d acquired, %d \
          released)"
         s.live (s.hits + s.misses) s.releases)
