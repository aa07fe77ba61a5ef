module Record = struct
  type counters = {
    mutable io_time : float;
    mutable cpu_time : float;
    mutable total_time : float;
    mutable page_reads : int;
    mutable sequential_reads : int;
    mutable random_reads : int;
    mutable seek_distance : int;
    mutable buffer_lookups : int;
    mutable buffer_hits : int;
    mutable buffer_misses : int;
    mutable async_reads : int;
    mutable batched_reads : int;
    mutable batch_pages : int;
    mutable coalesce_runs : int;
    mutable scan_windows : int;
    mutable scan_window_pages : int;
    mutable instances : int;
    mutable crossings : int;
    mutable specs_created : int;
    mutable specs_stored : int;
    mutable specs_resolved : int;
    mutable s_peak : int;
    mutable q_peak : int;
    mutable q_enqueued : int;
    mutable q_served : int;
    mutable q_dropped : int;
    mutable clusters_visited : int;
    mutable prefetch_refusals : int;
    mutable swizzle_hits : int;
    mutable swizzle_misses : int;
    mutable index_entries : int;
    mutable index_clusters : int;
    mutable index_residuals : int;
    mutable fused_transitions : int;
    mutable fused_states : int;
    mutable cache_hits : int;
    mutable cache_misses : int;
    mutable cache_evictions : int;
    mutable shared_demand : int;
    mutable scan_resist_hits : int;
    mutable fell_back : bool;
    mutable minor_words : int;
    mutable results_emitted : int;
    mutable dedup_hits : int;
    mutable served_ticks : int;
    mutable starved_ticks : int;
    mutable writer_commits : int;
    mutable latch_waits : int;
    mutable snapshot_retries : int;
    mutable cluster_stales : int;
  }
end

include Record

let create () =
  {
    io_time = 0.;
    cpu_time = 0.;
    total_time = 0.;
    page_reads = 0;
    sequential_reads = 0;
    random_reads = 0;
    seek_distance = 0;
    buffer_lookups = 0;
    buffer_hits = 0;
    buffer_misses = 0;
    async_reads = 0;
    batched_reads = 0;
    batch_pages = 0;
    coalesce_runs = 0;
    scan_windows = 0;
    scan_window_pages = 0;
    instances = 0;
    crossings = 0;
    specs_created = 0;
    specs_stored = 0;
    specs_resolved = 0;
    s_peak = 0;
    q_peak = 0;
    q_enqueued = 0;
    q_served = 0;
    q_dropped = 0;
    clusters_visited = 0;
    prefetch_refusals = 0;
    swizzle_hits = 0;
    swizzle_misses = 0;
    index_entries = 0;
    index_clusters = 0;
    index_residuals = 0;
    fused_transitions = 0;
    fused_states = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
    shared_demand = 0;
    scan_resist_hits = 0;
    fell_back = false;
    minor_words = 0;
    results_emitted = 0;
    dedup_hits = 0;
    served_ticks = 0;
    starved_ticks = 0;
    writer_commits = 0;
    latch_waits = 0;
    snapshot_retries = 0;
    cluster_stales = 0;
  }

let swizzle_hit_rate c =
  let touched = c.swizzle_hits + c.swizzle_misses in
  if touched = 0 then 0.0 else float_of_int c.swizzle_hits /. float_of_int touched

type layer = Run | Disk | Buffer | Store | Io_operator | Chain | Assembly | Cache | Workload

let layers = [ Run; Disk; Buffer; Store; Io_operator; Chain; Assembly; Cache; Workload ]

let layer_name = function
  | Run -> "run"
  | Disk -> "disk"
  | Buffer -> "buffer"
  | Store -> "store"
  | Io_operator -> "io-operator"
  | Chain -> "chain"
  | Assembly -> "assembly"
  | Cache -> "cache"
  | Workload -> "workload"

type knob = Swizzling | Scan_window | Fused_chain | Scan_resistant | Result_cache

let knobs = [ Swizzling; Scan_window; Fused_chain; Scan_resistant; Result_cache ]

(* The violation text for a knob: prefix before the guarded values,
   suffix after them. *)
let knob_message = function
  | Swizzling -> ("swizzle", "recorded while swizzling is off")
  | Scan_window -> ("scan-window", "while the hybrid is disabled")
  | Fused_chain -> ("fused", "recorded while fused evaluation is off")
  | Scan_resistant -> ("2q", "recorded while scan-resistant eviction is off")
  | Result_cache -> ("cache", "recorded while the result cache is off")

type field =
  | Count of (counters -> int) * (counters -> int -> unit)
  | Peak of (counters -> int) * (counters -> int -> unit)
  | Seconds of (counters -> float) * (counters -> float -> unit)
  | Flag of (counters -> bool) * (counters -> bool -> unit)
  | Ratio of (counters -> float)

type row = {
  name : string;
  layer : layer;
  doc : string;
  field : field;
  zero_unless : (knob * (int -> string, unit, string) format) option;
  bench : bool;
}

let row ?zero_unless ?(bench = true) name layer doc field =
  { name; layer; doc; field; zero_unless; bench }

let table =
  [
    row "io_time" Run "Simulated disk seconds the run consumed."
      (Seconds ((fun c -> c.io_time), fun c v -> c.io_time <- v));
    row "cpu_time" Run "Process CPU seconds the run consumed."
      (Seconds ((fun c -> c.cpu_time), fun c v -> c.cpu_time <- v));
    row "total_time" Run "io_time + cpu_time."
      (Seconds ((fun c -> c.total_time), fun c v -> c.total_time <- v));
    row "page_reads" Disk "Pages read from disk."
      (Count ((fun c -> c.page_reads), fun c v -> c.page_reads <- v));
    row "sequential_reads" Disk "Reads of the page after the head position."
      (Count ((fun c -> c.sequential_reads), fun c v -> c.sequential_reads <- v));
    row "random_reads" Disk "Reads that needed a seek."
      (Count ((fun c -> c.random_reads), fun c v -> c.random_reads <- v));
    row "seek_distance" Disk "Pages the head travelled over all seeks."
      (Count ((fun c -> c.seek_distance), fun c v -> c.seek_distance <- v));
    row "buffer_lookups" Buffer "Page fixes asked of the buffer pool."
      (Count ((fun c -> c.buffer_lookups), fun c v -> c.buffer_lookups <- v));
    row "buffer_hits" Buffer "Fixes served by a resident frame."
      (Count ((fun c -> c.buffer_hits), fun c v -> c.buffer_hits <- v));
    row "buffer_misses" Buffer "Fixes that had to read the page."
      (Count ((fun c -> c.buffer_misses), fun c v -> c.buffer_misses <- v));
    row "async_reads" Buffer "Asynchronous page requests submitted."
      (Count ((fun c -> c.async_reads), fun c v -> c.async_reads <- v));
    row "batched_reads" Disk "Vectored multi-page reads issued."
      (Count ((fun c -> c.batched_reads), fun c v -> c.batched_reads <- v));
    row "batch_pages" Disk "Pages delivered through vectored reads."
      (Count ((fun c -> c.batch_pages), fun c v -> c.batch_pages <- v));
    row "coalesce_runs" Disk "Vectored reads that carried at least 2 pages."
      (Count ((fun c -> c.coalesce_runs), fun c v -> c.coalesce_runs <- v));
    row "scan_windows" Io_operator "Adaptive scan windows XSchedule entered."
      ~zero_unless:(Scan_window, "%d windows opened")
      (Count ((fun c -> c.scan_windows), fun c v -> c.scan_windows <- v));
    row "scan_window_pages" Io_operator "Pages swept inside those windows."
      (Count ((fun c -> c.scan_window_pages), fun c v -> c.scan_window_pages <- v));
    row "instances" Chain "Path instances created."
      (Count ((fun c -> c.instances), fun c v -> c.instances <- v));
    row "crossings" Chain "Inter-cluster edges the step chain encountered."
      (Count ((fun c -> c.crossings), fun c v -> c.crossings <- v));
    row "specs_created" Io_operator
      "Speculative seed instances generated at Up borders (one per border slot and step); each \
       can fan out into several stored speculations."
      (Count ((fun c -> c.specs_created), fun c v -> c.specs_created <- v));
    row "specs_stored" Assembly "Speculations that entered XAssembly's store S."
      (Count ((fun c -> c.specs_stored), fun c v -> c.specs_stored <- v));
    row "specs_resolved" Assembly "Speculations whose left end became reachable."
      (Count ((fun c -> c.specs_resolved), fun c v -> c.specs_resolved <- v));
    row "s_peak" Assembly "High-water mark of |S|."
      (Peak ((fun c -> c.s_peak), fun c v -> c.s_peak <- v));
    row "q_peak" Io_operator "High-water mark of XSchedule's queue |Q|."
      (Peak ((fun c -> c.q_peak), fun c v -> c.q_peak <- v));
    row "q_enqueued" Io_operator "Items that entered Q."
      (Count ((fun c -> c.q_enqueued), fun c v -> c.q_enqueued <- v));
    row "q_served" Io_operator "Items drained from Q into an agenda."
      (Count ((fun c -> c.q_served), fun c v -> c.q_served <- v));
    row "q_dropped" Io_operator ~bench:false
      "Items discarded when a pipeline was abandoned for a restart with the simple method."
      (Count ((fun c -> c.q_dropped), fun c v -> c.q_dropped <- v));
    row "clusters_visited" Io_operator "Clusters made current by an I/O operator."
      (Count ((fun c -> c.clusters_visited), fun c v -> c.clusters_visited <- v));
    row "prefetch_refusals" Io_operator ~bench:false
      "Cluster prefetches the buffer refused (every frame pinned), retried by XSchedule."
      (Count ((fun c -> c.prefetch_refusals), fun c v -> c.prefetch_refusals <- v));
    row "swizzle_hits" Store "Decoded-record cache hits in the run's swizzled views."
      ~zero_unless:(Swizzling, "%d cache hits")
      (Count ((fun c -> c.swizzle_hits), fun c v -> c.swizzle_hits <- v));
    row "swizzle_misses" Store "First decodes of a slot (and post-update refills)."
      (Count ((fun c -> c.swizzle_misses), fun c v -> c.swizzle_misses <- v));
    row "swizzle_hit_rate" Store
      "swizzle_hits / (swizzle_hits + swizzle_misses), 0 when no view was touched."
      (Ratio swizzle_hit_rate);
    row "index_entries" Io_operator "Instances XIndex seeded from the partition's entry lists."
      (Count ((fun c -> c.index_entries), fun c v -> c.index_entries <- v));
    row "index_clusters" Io_operator "Clusters XIndex pinned to materialise seeds."
      (Count ((fun c -> c.index_clusters), fun c v -> c.index_clusters <- v));
    row "index_residuals" Io_operator "Border continuations served back through XIndex."
      (Count ((fun c -> c.index_residuals), fun c v -> c.index_residuals <- v));
    row "fused_transitions" Chain
      "Automaton transitions (cursor emissions) the fused chain consumed."
      ~zero_unless:(Fused_chain, "%d transitions")
      (Count ((fun c -> c.fused_transitions), fun c v -> c.fused_transitions <- v));
    row "fused_states" Chain "Work-stack frames the fused chain pushed."
      ~zero_unless:(Fused_chain, "%d states")
      (Count ((fun c -> c.fused_states), fun c v -> c.fused_states <- v));
    row "cache_hits" Cache "Runs or jobs answered from the result cache, without planning or I/O."
      ~zero_unless:(Result_cache, "hits %d")
      (Count ((fun c -> c.cache_hits), fun c v -> c.cache_hits <- v));
    row "cache_misses" Cache "Cacheable runs that executed and installed their answer."
      ~zero_unless:(Result_cache, "misses %d")
      (Count ((fun c -> c.cache_misses), fun c v -> c.cache_misses <- v));
    row "cache_evictions" Cache "LRU evictions the installation caused."
      ~zero_unless:(Result_cache, "evictions %d")
      (Count ((fun c -> c.cache_evictions), fun c v -> c.cache_evictions <- v));
    row "shared_demand" Workload "Jobs deduped into another client's identical in-flight scan."
      ~zero_unless:(Result_cache, "shared %d")
      (Count ((fun c -> c.shared_demand), fun c v -> c.shared_demand <- v));
    row "scan_resist_hits" Buffer "Buffer hits served from the 2Q-protected main queue."
      ~zero_unless:(Scan_resistant, "%d protected hits")
      (Count ((fun c -> c.scan_resist_hits), fun c v -> c.scan_resist_hits <- v));
    row "fell_back" Run "The run switched to the simple method (Sec. 5.4.6)."
      (Flag ((fun c -> c.fell_back), fun c v -> c.fell_back <- v));
    row "minor_words" Run "Words allocated on the minor heap during the run (Gc.minor_words)."
      (Count ((fun c -> c.minor_words), fun c v -> c.minor_words <- v));
    row "results_emitted" Assembly ~bench:false "Distinct result nodes XAssembly emitted."
      (Count ((fun c -> c.results_emitted), fun c v -> c.results_emitted <- v));
    row "dedup_hits" Assembly ~bench:false
      "Duplicate emissions suppressed (XAssembly and UnnestMap)."
      (Count ((fun c -> c.dedup_hits), fun c v -> c.dedup_hits <- v));
    row "served_ticks" Workload ~bench:false "Scheduler turns in which this stream ran."
      (Count ((fun c -> c.served_ticks), fun c v -> c.served_ticks <- v));
    row "starved_ticks" Workload ~bench:false
      "Scheduler turns this stream sat runnable while another ran."
      (Count ((fun c -> c.starved_ticks), fun c v -> c.starved_ticks <- v));
    row "writer_commits" Workload ~bench:false "Update operations a writer job committed."
      (Count ((fun c -> c.writer_commits), fun c v -> c.writer_commits <- v));
    row "latch_waits" Workload ~bench:false
      "Turns a writer spent blocked on another writer's cluster latch."
      (Count ((fun c -> c.latch_waits), fun c v -> c.latch_waits <- v));
    row "snapshot_retries" Workload ~bench:false
      "Reader restarts forced by a commit into an already-observed cluster."
      (Count ((fun c -> c.snapshot_retries), fun c v -> c.snapshot_retries <- v));
    row "cluster_stales" Workload ~bench:false
      "Result-cache entries a writer's commits dropped because their footprint met the write set."
      (Count ((fun c -> c.cluster_stales), fun c v -> c.cluster_stales <- v));
  ]

let add a b =
  let r = create () in
  List.iter
    (fun row ->
      match row.field with
      | Count (get, set) -> set r (get a + get b)
      | Peak (get, set) -> set r (max (get a) (get b))
      | Seconds (get, set) -> set r (get a +. get b)
      | Flag (get, set) -> set r (get a || get b)
      | Ratio _ -> ())
    table;
  r

type value = Int of int | Float of float | Bool of bool

let value c row =
  match row.field with
  | Count (get, _) | Peak (get, _) -> Int (get c)
  | Seconds (get, _) | Ratio get -> Float (get c)
  | Flag (get, _) -> Bool (get c)

let bench_fields c =
  List.filter_map (fun row -> if row.bench then Some (row.name, value c row) else None) table

let pp_value ppf = function
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%.4f" f
  | Bool b -> Format.pp_print_bool ppf b

let pp ppf c =
  let line ppf layer =
    Format.fprintf ppf "@[<hov 2>%s:" (layer_name layer);
    List.iter
      (fun row ->
        if row.layer = layer then Format.fprintf ppf "@ %s %a" row.name pp_value (value c row))
      table;
    Format.fprintf ppf "@]"
  in
  Format.fprintf ppf "@[<v>%a@]" (Format.pp_print_list line) layers

let int_rows =
  List.filter_map
    (fun row -> match row.field with Count (get, _) | Peak (get, _) -> Some (row, get) | _ -> None)
    table

let negative c =
  List.filter_map
    (fun (row, get) ->
      let v = get c in
      if v < 0 then Some (Printf.sprintf "counter %s is negative (%d)" row.name v) else None)
    int_rows

let knob_off ~on c =
  List.filter_map
    (fun knob ->
      let guarded =
        List.filter_map
          (fun (row, get) ->
            match row.zero_unless with
            | Some (k, part) when k = knob -> Some (part, get c)
            | _ -> None)
          int_rows
      in
      if on knob || List.for_all (fun (_, v) -> v = 0) guarded then None
      else
        let prefix, suffix = knob_message knob in
        let values = List.map (fun (part, v) -> Printf.sprintf part v) guarded in
        Some (Printf.sprintf "%s: %s %s" prefix (String.concat " / " values) suffix))
    knobs
