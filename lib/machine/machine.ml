open Bp_util

type pe = {
  freq_hz : float;
  mem_words : int;
  read_cycles_per_word : float;
  write_cycles_per_word : float;
  switch_cycles : float;
}

type t = {
  pe : pe;
  max_pes : int;
  target_utilization : float;
  multiplex_headroom : float;
}

let pe_v ?(switch_cycles = 0.) ~freq_hz ~mem_words ~read_cycles_per_word
    ~write_cycles_per_word () =
  if freq_hz <= 0. then Err.invalidf "PE frequency must be positive";
  if mem_words <= 0 then Err.invalidf "PE memory must be positive";
  if read_cycles_per_word < 0. || write_cycles_per_word < 0. then
    Err.invalidf "PE I/O costs must be non-negative";
  if switch_cycles < 0. then Err.invalidf "switch cost must be non-negative";
  {
    freq_hz;
    mem_words;
    read_cycles_per_word;
    write_cycles_per_word;
    switch_cycles;
  }

let v ?(max_pes = 64) ?(target_utilization = 0.9)
    ?(multiplex_headroom = 0.8) pe =
  if max_pes <= 0 then Err.invalidf "machine must have at least one PE";
  if target_utilization <= 0. || target_utilization > 1. then
    Err.invalidf "target utilization must be in (0,1]";
  if multiplex_headroom <= 0. || multiplex_headroom > 1. then
    Err.invalidf "multiplex headroom must be in (0,1]";
  { pe; max_pes; target_utilization; multiplex_headroom }

let cycle_time_s pe = 1. /. pe.freq_hz

let read_time_s pe ~words =
  float_of_int words *. pe.read_cycles_per_word /. pe.freq_hz

let write_time_s pe ~words =
  float_of_int words *. pe.write_cycles_per_word /. pe.freq_hz

let usable_cycles_per_s t = t.pe.freq_hz *. t.target_utilization

let default =
  v
    (pe_v ~freq_hz:1e6 ~mem_words:4096 ~read_cycles_per_word:0.15
       ~write_cycles_per_word:0.15 ())

let small_memory =
  v
    (pe_v ~freq_hz:1e6 ~mem_words:320 ~read_cycles_per_word:0.15
       ~write_cycles_per_word:0.15 ())

let fast_pe =
  v
    (pe_v ~freq_hz:4e6 ~mem_words:4096 ~read_cycles_per_word:0.15
       ~write_cycles_per_word:0.15 ())

let names = [ "default"; "small-memory"; "fast-pe" ]

let by_name = function
  | "default" -> default
  | "small-memory" -> small_memory
  | "fast-pe" -> fast_pe
  | other -> Err.unsupportedf "unknown machine %S (expected %s)" other
               (String.concat "/" names)
