module Machine = Bp_machine.Machine

(* The price list (see energy.mli). *)
let pj_per_cycle = 10.
let pj_per_word = 5.
let mw_static_per_pe = 0.5

type breakdown = {
  compute_uj : float;
  channel_uj : float;
  static_uj : float;
  total_uj : float;
  pes : int;
  duration_s : float;
}

let of_result ~machine (r : Sim.result) =
  let pe = machine.Machine.pe in
  let freq = pe.Machine.freq_hz in
  let pj_to_uj v = v *. 1e-6 in
  let cycles =
    Array.fold_left (fun acc p -> acc +. (p.Sim.run_s *. freq)) 0. r.Sim.procs
  in
  (* Words moved are recovered from the time spent moving them; when a
     direction is free (cost 0 cycles/word) its words are untracked and
     excluded — the estimate is then a lower bound. *)
  let words_of time_s cost_cycles_per_word =
    if cost_cycles_per_word <= 0. then 0.
    else time_s *. freq /. cost_cycles_per_word
  in
  let words =
    Array.fold_left
      (fun acc p ->
        acc
        +. words_of p.Sim.read_s pe.Machine.read_cycles_per_word
        +. words_of p.Sim.write_s pe.Machine.write_cycles_per_word)
      0. r.Sim.procs
  in
  let pes = Array.length r.Sim.procs in
  let compute_uj = pj_to_uj (cycles *. pj_per_cycle) in
  let channel_uj = pj_to_uj (words *. pj_per_word) in
  let static_uj =
    (* mW * s = mJ = 1000 uJ *)
    mw_static_per_pe *. float_of_int pes *. r.Sim.duration_s *. 1000.
  in
  {
    compute_uj;
    channel_uj;
    static_uj;
    total_uj = compute_uj +. channel_uj +. static_uj;
    pes;
    duration_s = r.Sim.duration_s;
  }

let pp ppf b =
  Format.fprintf ppf
    "energy: %.2f uJ total (compute %.2f, channels %.2f, static %.2f on %d \
     PEs)"
    b.total_uj b.compute_uj b.channel_uj b.static_uj b.pes
