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

type promise = { same_rows : string list; same_trace : bool }

type knob = {
  name : string;
  guard : Counters.knob;
  enabled : config -> bool;
  set : bool -> config -> config;
  off_text : string;
  tier : string option;
  promise : promise;
  witness : string;
}

(* A knob over one config field: on while the field exceeds its off
   value (for a flag, [true > false]). *)
let knob name guard ~get ~put ~off ~on ~off_text ?tier ?(same_rows = []) ?(same_trace = false)
    witness =
  {
    name;
    guard;
    enabled = (fun c -> get c > off);
    set = (fun b c -> put (if b then on else off) c);
    off_text;
    tier;
    promise = { same_rows; same_trace };
    witness;
  }

(* What the operators compute, as opposed to how the disk and the
   decode caches are reached. *)
let execution_rows =
  [
    "page_reads"; "seek_distance"; "q_enqueued"; "q_served"; "clusters_visited"; "crossings";
    "instances"; "specs_created"; "specs_stored"; "specs_resolved"; "fused_transitions";
    "fused_states";
  ]

let knobs =
  [
    knob "scan-window" Counters.Scan_window ~get:(fun c -> c.scan_threshold)
      ~put:(fun scan_threshold c -> { c with scan_threshold })
      ~off:0.0 ~on:0.5 ~off_text:"while the hybrid is disabled" ~tier:"batching"
      "the abl-batch grid and the Table 3 shape test, which turns it off to profile the pure \
       demand scheduler";
    knob "coalesce" Counters.Coalescing ~get:(fun c -> c.coalesce_window)
      ~put:(fun coalesce_window c -> { c with coalesce_window })
      ~off:0 ~on:16 ~off_text:"recorded while coalescing is off" ~tier:"batching"
      "the abl-batch grid and the Table 3 shape test, which turns it off to profile the pure \
       demand scheduler";
    knob "fused" Counters.Fused_chain ~get:(fun c -> c.fused) ~put:set_fused ~off:false ~on:true
      ~off_text:"recorded while fused evaluation is off" ~tier:"fused"
      ~same_rows:
        [
          "page_reads"; "seek_distance"; "q_enqueued"; "q_served"; "clusters_visited"; "crossings";
          "specs_created"; "specs_resolved";
        ]
      ~same_trace:true "the micro_fused rows, the Table 3 test and the fused tier";
    knob "2q" Counters.Scan_resistant ~get:(fun c -> c.scan_resistant) ~put:set_scan_resistant
      ~off:false ~on:true ~off_text:"recorded while scan-resistant eviction is off"
      "the shards section's antagonist and the shards tier, which turns it on in half its cases";
    knob "cache" Counters.Result_cache ~get:(fun c -> c.result_cache) ~put:set_result_cache
      ~off:false ~on:true ~off_text:"recorded while the result cache is off" ~tier:"cache"
      ~same_rows:execution_rows ~same_trace:true
      "the skew section's front-door speedup gate and the cache tier";
  ]

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
