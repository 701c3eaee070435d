let bucket_bounds =
  [| 1e-9; 1e-8; 1e-7; 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10. |]

type hist = {
  mutable count : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
  buckets : int array;  (* one per bound + overflow *)
}

type value = Counter of int ref | Gauge of float ref | Hist of hist

type t = (string, value) Hashtbl.t

let create () : t = Hashtbl.create 64

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

let find t name ~kind ~make =
  match Hashtbl.find_opt t name with
  | Some v ->
    if kind_name v <> kind then
      invalid_arg
        (Printf.sprintf "Metrics: %s is a %s, used as a %s" name (kind_name v)
           kind);
    v
  | None ->
    let v = make () in
    Hashtbl.replace t name v;
    v

let counter_ref t name =
  match find t name ~kind:"counter" ~make:(fun () -> Counter (ref 0)) with
  | Counter r -> r
  | _ -> assert false

let gauge_ref t name =
  match find t name ~kind:"gauge" ~make:(fun () -> Gauge (ref 0.)) with
  | Gauge r -> r
  | _ -> assert false

let hist_of t name =
  let make () =
    Hist
      {
        count = 0;
        sum = 0.;
        mn = Float.infinity;
        mx = Float.neg_infinity;
        buckets = Array.make (Array.length bucket_bounds + 1) 0;
      }
  in
  match find t name ~kind:"histogram" ~make with
  | Hist h -> h
  | _ -> assert false

let incr t ?(by = 1) name =
  if by < 0 then invalid_arg "Metrics.incr: negative increment";
  let r = counter_ref t name in
  r := !r + by

let set t name v = gauge_ref t name := v
let set_max t name v =
  let r = gauge_ref t name in
  if v > !r then r := v

let add t name v =
  let r = gauge_ref t name in
  r := !r +. v

let bucket_index v =
  let n = Array.length bucket_bounds in
  let rec go i = if i >= n then n else if v <= bucket_bounds.(i) then i else go (i + 1) in
  go 0

let observe t name v =
  let h = hist_of t name in
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.mn then h.mn <- v;
  if v > h.mx then h.mx <- v;
  let i = bucket_index v in
  h.buckets.(i) <- h.buckets.(i) + 1

let set_histogram t name ~count ~sum ~min ~max ~buckets =
  if Array.length buckets <> Array.length bucket_bounds + 1 then
    invalid_arg "Metrics.set_histogram: one bucket per bound plus overflow";
  let h = hist_of t name in
  h.count <- count;
  h.sum <- sum;
  h.mn <- min;
  h.mx <- max;
  Array.blit buckets 0 h.buckets 0 (Array.length buckets)

let counter t name =
  match Hashtbl.find_opt t name with Some (Counter r) -> !r | _ -> 0

let gauge t name =
  match Hashtbl.find_opt t name with Some (Gauge r) -> Some !r | _ -> None

type hist_stats = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_mean : float;
}

let histogram t name =
  match Hashtbl.find_opt t name with
  | Some (Hist h) when h.count > 0 ->
    Some
      {
        h_count = h.count;
        h_sum = h.sum;
        h_min = h.mn;
        h_max = h.mx;
        h_mean = h.sum /. float_of_int h.count;
      }
  | Some (Hist _) ->
    Some { h_count = 0; h_sum = 0.; h_min = 0.; h_max = 0.; h_mean = 0. }
  | _ -> None

(* ---- GC and pool sampling ------------------------------------------- *)

type gc_snapshot = {
  gc_minor_words : float;
  gc_major_words : float;
  gc_promoted_words : float;
  gc_minor_collections : int;
  gc_major_collections : int;
}

(* Minor words come from [Gc.minor_words], which counts the current minor
   heap too: on OCaml 5.1, [quick_stat]'s [minor_words] advances only at
   minor collections, so its deltas are whole minor heaps, or 0. *)
let gc_snapshot () =
  let s = Gc.quick_stat () in
  {
    gc_minor_words = Gc.minor_words ();
    gc_major_words = s.Gc.major_words;
    gc_promoted_words = s.Gc.promoted_words;
    gc_minor_collections = s.Gc.minor_collections;
    gc_major_collections = s.Gc.major_collections;
  }

let allocated_words ~before ~after =
  (* Promoted words appear in both minor and major totals; subtract one
     copy so the result is words allocated, wherever they first landed. *)
  after.gc_minor_words -. before.gc_minor_words
  +. (after.gc_major_words -. before.gc_major_words)
  -. (after.gc_promoted_words -. before.gc_promoted_words)

let record_gc t ?(prefix = "") ~before ~after () =
  let n s = prefix ^ s in
  set t (n "gc.minor_words") (after.gc_minor_words -. before.gc_minor_words);
  set t (n "gc.major_words") (after.gc_major_words -. before.gc_major_words);
  set t
    (n "gc.promoted_words")
    (after.gc_promoted_words -. before.gc_promoted_words);
  set t (n "gc.allocated_words") (allocated_words ~before ~after);
  incr t
    ~by:(after.gc_minor_collections - before.gc_minor_collections)
    (n "gc.minor_collections");
  incr t
    ~by:(after.gc_major_collections - before.gc_major_collections)
    (n "gc.major_collections")

let record_pool t ?(prefix = "") ~hits ~misses ~releases ~live () =
  let n s = prefix ^ s in
  incr t ~by:hits (n "pool.hits");
  incr t ~by:misses (n "pool.misses");
  incr t ~by:releases (n "pool.releases");
  set t (n "pool.live") (float_of_int live);
  let total = hits + misses in
  set t
    (n "pool.hit_rate")
    (if total = 0 then 0. else float_of_int hits /. float_of_int total)

let record_domain t ?(prefix = "") ~domain ~tasks ~wall_s ~steals () =
  let n s = Printf.sprintf "%ssim.domain.%d.%s" prefix domain s in
  incr t ~by:tasks (n "tasks");
  incr t ~by:steals (n "steal_count");
  set t (n "wall_s") wall_s

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort compare

let to_json t =
  let entry name =
    match Hashtbl.find t name with
    | Counter r -> Json.Obj [ ("name", Str name); ("kind", Str "counter"); ("value", Int !r) ]
    | Gauge r ->
      Json.Obj [ ("name", Str name); ("kind", Str "gauge"); ("value", Json.float !r) ]
    | Hist h ->
      let stats = Option.get (histogram t name) in
      let buckets =
        List.concat
          [
            List.mapi
              (fun i le ->
                Json.Obj [ ("le", Json.float le); ("count", Int h.buckets.(i)) ])
              (Array.to_list bucket_bounds);
            [
              Json.Obj
                [
                  ("le", Null);
                  ("count", Int h.buckets.(Array.length bucket_bounds));
                ];
            ];
          ]
      in
      Json.Obj
        [
          ("name", Str name);
          ("kind", Str "histogram");
          ("count", Int stats.h_count);
          ("sum", Json.float stats.h_sum);
          ("min", Json.float stats.h_min);
          ("max", Json.float stats.h_max);
          ("mean", Json.float stats.h_mean);
          ("buckets", List buckets);
        ]
  in
  Json.Obj [ ("metrics", List (List.map entry (names t))) ]

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun name ->
      match Hashtbl.find t name with
      | Counter r -> Format.fprintf ppf "%-40s %12d@," name !r
      | Gauge r -> Format.fprintf ppf "%-40s %12g@," name !r
      | Hist _ ->
        let s = Option.get (histogram t name) in
        Format.fprintf ppf "%-40s n=%d sum=%g min=%g max=%g mean=%g@," name
          s.h_count s.h_sum s.h_min s.h_max s.h_mean)
    (names t);
  Format.fprintf ppf "@]"
