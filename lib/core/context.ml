type config = {
  k : int;
  memory_budget : int;
  validate : bool;
  coalesce_window : int;
  scan_threshold : float;
  fused : bool;
  result_cache : bool;
  scan_resistant : bool;
}

let default_config =
  {
    k = 100;
    memory_budget = 1_000_000;
    validate = false;
    coalesce_window = 16;
    scan_threshold = 0.5;
    fused = true;
    result_cache = false;
    scan_resistant = false;
  }

let set_fused fused config = { config with fused }
let set_result_cache result_cache config = { config with result_cache }
let set_scan_resistant scan_resistant config = { config with scan_resistant }

include Counters.Record

type t = {
  store : Xnav_store.Store.t;
  config : config;
  counters : counters;
  mutable trace : (string -> unit) option;
}

let create ?(config = default_config) store =
  {
    store;
    config;
    trace = None;
    counters = Counters.create ();
  }

let enter_fallback t = t.counters.fell_back <- true
let fallback t = t.counters.fell_back

let tracing t = match t.trace with None -> false | Some _ -> true
let emit t msg = match t.trace with None -> () | Some f -> f (msg ())
