module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Path = Xnav_xpath.Path
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Ordpath = Xnav_xml.Ordpath

type metrics = {
  io_time : float;
  cpu_time : float;
  total_time : float;
  page_reads : int;
  sequential_reads : int;
  random_reads : int;
  seek_distance : int;
  buffer_lookups : int;
  buffer_hits : int;
  buffer_misses : int;
  async_reads : int;
  batched_reads : int;
  batch_pages : int;
  coalesce_runs : int;
  scan_windows : int;
  scan_window_pages : int;
  instances : int;
  crossings : int;
  specs_created : int;
  specs_stored : int;
  specs_resolved : int;
  s_peak : int;
  q_peak : int;
  q_enqueued : int;
  q_served : int;
  clusters_visited : int;
  swizzle_hits : int;
  swizzle_misses : int;
  index_entries : int;
  index_clusters : int;
  index_residuals : int;
  fused_transitions : int;
  fused_states : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  shared_demand : int;
  writer_commits : int;
  latch_waits : int;
  snapshot_retries : int;
  cluster_stales : int;
  scan_resist_hits : int;
  fell_back : bool;
}

type result = { nodes : Store.info list; count : int; metrics : metrics }

let of_list items =
  let remaining = ref items in
  fun () ->
    match !remaining with
    | [] -> None
    | x :: rest ->
      remaining := rest;
      Some x

let plan_error path plan =
  if path = [] then Some "empty path"
  else
    match (plan : Plan.t) with
    | Plan.Reordered _ when not (Path.is_downward path) ->
      Some "reordered plans require downward axes only"
    | _ -> None

let check_plan who path plan =
  Option.iter (fun msg -> invalid_arg (who ^ ": " ^ msg)) (plan_error path plan)

(* Build the result iterator for [plan]; also hand back the I/O operator
   (if the plan has one) so post-run invariants can inspect it and a
   stuck post-fallback pipeline can be torn down. *)
let pipeline ctx store path plan contexts =
  let path_len = Path.length path in
  match (plan : Plan.t) with
  | Plan.Simple { dedup_intermediate } ->
    let infos = List.map (fun id -> Store.info store id) contexts in
    let producer =
      List.fold_left
        (fun producer step -> Unnest_map.create ctx ~step ~dedup:dedup_intermediate producer)
        (of_list infos) path
    in
    (producer, None, None, None)
  | Plan.Reordered { io; dslash; fused } ->
    (* Both knobs must agree: the plan's [fused] field and the context
       config's kill switch. Off reproduces the per-step chain (and its
       counter stream) exactly. *)
    let fused = fused && ctx.Context.config.Context.fused in
    let chain base =
      if fused then Fused.create ctx ~path base
      else
        List.fold_left
          (fun (producer, i) step -> (Xstep.create ctx ~i ~step producer, i + 1))
          (base, 1) path
        |> fst
    in
    let schedule_pipeline () =
      let sched = Xschedule.create ctx ~path_len ~contexts:(of_list contexts) in
      let top = chain (fun () -> Xschedule.next sched) in
      (Xassembly.create ctx ~path_len ~xschedule:(Some sched) ~dslash:false top, Some sched, None, None)
    in
    (match io with
    | Plan.Io_schedule _ -> schedule_pipeline ()
    | Plan.Io_scan ->
      let sorted = List.sort Node_id.compare contexts in
      let scan = Xscan.create ctx ~path_len ~contexts:(fun () -> of_list sorted) in
      let top = chain (fun () -> Xscan.next scan) in
      (Xassembly.create ctx ~path_len ~xschedule:None ~dslash top, None, Some scan, None)
    | Plan.Io_index { resolve } ->
      let can_index =
        Xindex.usable store ~path ~resolve
        && match contexts with [ c ] -> Node_id.equal c (Store.root store) | _ -> false
      in
      if can_index then begin
        let index = Xindex.create ctx ~path ~resolve ~contexts:(fun () -> of_list contexts) in
        let top = chain (fun () -> Xindex.next index) in
        ( Xassembly.create ctx ~path_len ~xschedule:None ~xindex:index ~dslash:false top,
          None,
          None,
          Some index )
      end
      else
        (* Missing or stale partition — the entry lists no longer
           describe the document — or non-root contexts, which the
           partition's root-anchored classes cannot seed. Degrade to
           the schedule shape: same results, no index counters. *)
        schedule_pipeline ())

let run ?config ?contexts ?trace ?(ordered = true) store path plan =
  check_plan "Exec.run" path plan;
  let contexts = match contexts with Some c -> c | None -> [ Store.root store ] in
  let config =
    match (config, plan) with
    | Some c, _ -> c
    | None, Plan.Reordered { io = Plan.Io_schedule { speculative }; _ } ->
      { Context.default_config with Context.speculative }
    | None, _ -> Context.default_config
  in
  let ctx = Context.create ~config store in
  ctx.Context.trace <- trace;
  let buffer = Store.buffer store in
  (* The eviction-policy knob travels with the config: knob-off runs put
     the pool back on the historical exact LRU before the first fix. *)
  Buffer_manager.set_scan_resistant buffer config.Context.scan_resistant;
  let disk = Buffer_manager.disk buffer in
  let disk_before = Disk.stats disk in
  let io_before = Disk.elapsed disk in
  let buf_before = Buffer_manager.stats buffer in
  let swiz_hits_before, swiz_misses_before = Store.swizzle_stats store in
  let cpu_before = Sys.time () in

  (* The repeat-traffic front door: root-context statements are answered
     from the result cache before any planning or I/O happens. Only the
     root context is cacheable — that is what repeated statements are —
     and the stamp check inside [Result_cache.find] guarantees an
     updated store never serves a stale answer. *)
  let cache_key =
    if
      config.Context.result_cache
      && (match contexts with [ c ] -> Node_id.equal c (Store.root store) | _ -> false)
    then Some (Path.to_string path)
    else None
  in
  match (match cache_key with Some key -> Result_cache.find store key | None -> None) with
  | Some entry ->
    let c = ctx.Context.counters in
    c.Context.cache_hits <- 1;
    let cpu_time = Sys.time () -. cpu_before in
    {
      nodes = Result_cache.nodes entry;
      count = Result_cache.count entry;
      metrics =
        {
          io_time = 0.0;
          cpu_time;
          total_time = cpu_time;
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
          clusters_visited = 0;
          swizzle_hits = 0;
          swizzle_misses = 0;
          index_entries = 0;
          index_clusters = 0;
          index_residuals = 0;
          fused_transitions = 0;
          fused_states = 0;
          cache_hits = 1;
          cache_misses = 0;
          cache_evictions = 0;
          shared_demand = 0;
          writer_commits = 0;
          latch_waits = 0;
          snapshot_retries = 0;
          cluster_stales = 0;
          scan_resist_hits = 0;
          fell_back = false;
        };
    }
  | None ->

  (* While a cacheable run executes, record the clusters it reads: the
     footprint makes the installed entry survive writes to other
     clusters (see {!Result_cache}). The log nests — the previous one
     (a workload lane's, typically) is restored afterwards. *)
  let touched =
    match cache_key with Some _ -> Some (Hashtbl.create 32) | None -> None
  in
  let saved_log = match touched with Some _ -> Store.swap_touch_log store touched | None -> None in
  let next, xschedule, xscan, xindex = pipeline ctx store path plan contexts in
  let out = Vec.create () in
  let drain next =
    let rec go () =
      match next () with
      | None -> ()
      | Some info ->
        Vec.push out info;
        go ()
    in
    go ()
  in
  let restarted =
    try
      drain next;
      false
    with Buffer_manager.Buffer_full when Context.fallback ctx ->
      (* After a fallback the XSteps re-navigate globally, which needs a
         free buffer frame — but the I/O operator still pins its current
         cluster, so a near-minimal buffer can wedge. Tear the pipeline
         down (releasing that pin and cancelling its I/O) and recompute
         the whole query with the simple method, as the paper's fallback
         prescribes. *)
      Option.iter Xschedule.abandon xschedule;
      Option.iter Xscan.abandon xscan;
      Option.iter Xindex.abandon xindex;
      Vec.clear out;
      drain (let p, _, _, _ = pipeline ctx store path Plan.simple contexts in p);
      true
  in
  (match touched with Some _ -> ignore (Store.swap_touch_log store saved_log) | None -> ());

  let cpu_time = Sys.time () -. cpu_before in
  let io_time = Disk.elapsed disk -. io_before in
  let disk_after = Disk.stats disk in
  let buf_after = Buffer_manager.stats buffer in
  let swiz_hits_after, swiz_misses_after = Store.swizzle_stats store in
  let c = ctx.Context.counters in
  c.Context.swizzle_hits <- swiz_hits_after - swiz_hits_before;
  c.Context.swizzle_misses <- swiz_misses_after - swiz_misses_before;
  c.Context.scan_resist_hits <-
    buf_after.Buffer_manager.scan_resist_hits - buf_before.Buffer_manager.scan_resist_hits;
  let pinned = Buffer_manager.pinned_count buffer in
  if pinned <> 0 then failwith (Printf.sprintf "Exec.run: %d pages left pinned" pinned);

  (* Final duplicate elimination (reordered plans are already
     duplicate-free through R, but the Simple method needs it, Sec. 5.1)
     and re-established document order (Sec. 5.5) — one dedup pass into
     a flat array, one in-place sort. *)
  let seen = Node_id.Seen.create () in
  let distinct = Vec.create () in
  Vec.iter (fun (i : Store.info) -> if Node_id.Seen.add seen i.id then Vec.push distinct i) out;
  if ordered then
    Vec.sort (fun (a : Store.info) b -> Ordpath.compare a.ordpath b.ordpath) distinct;
  let count = Vec.length distinct in
  let nodes = Vec.to_list distinct in

  (* Cache fill after a miss. Entries always hold document order so a
     hit can serve ordered and unordered callers alike. *)
  (match cache_key with
  | None -> ()
  | Some key ->
    c.Context.cache_misses <- 1;
    let sorted =
      if ordered then nodes
      else
        List.sort (fun (a : Store.info) b -> Ordpath.compare a.ordpath b.ordpath) nodes
    in
    (* Index-seeded runs derive their seeds from the partition, not from
       page reads, so no touch-log footprint can cover a write that
       would change them — install those entries footprint-less (staled
       by any mutation, the conservative pre-footprint rule). *)
    let clusters =
      if c.Context.index_entries > 0 then None
      else
        Option.map
          (fun tbl ->
            let pids = Hashtbl.fold (fun pid () acc -> pid :: acc) tbl [] in
            let a = Array.of_list pids in
            Array.sort compare a;
            a)
          touched
    in
    c.Context.cache_evictions <- Result_cache.add ?clusters store key ~count sorted);

  if config.Context.validate then begin
    (* Result conservation only applies when XAssembly produced the
       final answer — not after a restart, which leaves its counters at
       the aborted attempt's values. *)
    let results =
      match (plan, restarted) with
      | Plan.Reordered _, false -> Some count
      | _ -> None
    in
    Invariant.enforce ?xschedule ?xindex ?results ctx
  end;
  {
    nodes;
    count;
    metrics =
      {
        io_time;
        cpu_time;
        total_time = io_time +. cpu_time;
        page_reads = disk_after.Disk.reads - disk_before.Disk.reads;
        sequential_reads = disk_after.Disk.sequential_reads - disk_before.Disk.sequential_reads;
        random_reads = disk_after.Disk.random_reads - disk_before.Disk.random_reads;
        seek_distance = disk_after.Disk.seek_distance - disk_before.Disk.seek_distance;
        buffer_lookups = buf_after.Buffer_manager.lookups - buf_before.Buffer_manager.lookups;
        buffer_hits = buf_after.Buffer_manager.hits - buf_before.Buffer_manager.hits;
        buffer_misses = buf_after.Buffer_manager.misses - buf_before.Buffer_manager.misses;
        async_reads = buf_after.Buffer_manager.async_reads - buf_before.Buffer_manager.async_reads;
        batched_reads = disk_after.Disk.batched_reads - disk_before.Disk.batched_reads;
        batch_pages = disk_after.Disk.batch_pages - disk_before.Disk.batch_pages;
        coalesce_runs = disk_after.Disk.coalesce_runs - disk_before.Disk.coalesce_runs;
        scan_windows = c.Context.scan_windows;
        scan_window_pages = c.Context.scan_window_pages;
        instances = c.Context.instances;
        crossings = c.Context.crossings;
        specs_created = c.Context.specs_created;
        specs_stored = c.Context.specs_stored;
        specs_resolved = c.Context.specs_resolved;
        s_peak = c.Context.s_peak;
        q_peak = c.Context.q_peak;
        q_enqueued = c.Context.q_enqueued;
        q_served = c.Context.q_served;
        clusters_visited = c.Context.clusters_visited;
        swizzle_hits = c.Context.swizzle_hits;
        swizzle_misses = c.Context.swizzle_misses;
        index_entries = c.Context.index_entries;
        index_clusters = c.Context.index_clusters;
        index_residuals = c.Context.index_residuals;
        fused_transitions = c.Context.fused_transitions;
        fused_states = c.Context.fused_states;
        cache_hits = c.Context.cache_hits;
        cache_misses = c.Context.cache_misses;
        cache_evictions = c.Context.cache_evictions;
        shared_demand = c.Context.shared_demand;
        writer_commits = c.Context.writer_commits;
        latch_waits = c.Context.latch_waits;
        snapshot_retries = c.Context.snapshot_retries;
        cluster_stales = c.Context.cluster_stales;
        scan_resist_hits = c.Context.scan_resist_hits;
        fell_back = Context.fallback ctx;
      };
  }

type stream = {
  next : unit -> Store.info option;
  stream_ctx : Context.t;
  stream_sched : Xschedule.t option;
  stream_index : Xindex.t option;
  stream_abandon : unit -> unit;
}

let prepare ?config ?contexts ?trace store path plan =
  check_plan "Exec.prepare" path plan;
  let contexts = match contexts with Some c -> c | None -> [ Store.root store ] in
  let config =
    match (config, plan) with
    | Some c, _ -> c
    | None, Plan.Reordered { io = Plan.Io_schedule { speculative }; _ } ->
      { Context.default_config with Context.speculative }
    | None, _ -> Context.default_config
  in
  let ctx = Context.create ~config store in
  ctx.Context.trace <- trace;
  Buffer_manager.set_scan_resistant (Store.buffer store) config.Context.scan_resistant;
  let next, xschedule, xscan, xindex = pipeline ctx store path plan contexts in
  {
    next;
    stream_ctx = ctx;
    stream_sched = xschedule;
    stream_index = xindex;
    stream_abandon =
      (fun () ->
        Option.iter Xschedule.abandon xschedule;
        Option.iter Xscan.abandon xscan;
        Option.iter Xindex.abandon xindex);
  }

let stream_next stream = stream.next ()
let stream_fell_back stream = Context.fallback stream.stream_ctx
let stream_abandon stream = stream.stream_abandon ()
let stream_ctx stream = stream.stream_ctx

let stream_demand stream =
  match stream.stream_sched with Some x -> Xschedule.queued_clusters x | None -> []

let stream_scan_window stream = Option.bind stream.stream_sched Xschedule.scan_window

let stream_violations ?results stream =
  Invariant.post_run ?xschedule:stream.stream_sched ?xindex:stream.stream_index ?results
    stream.stream_ctx

let cold_run ?config ?contexts ?trace ?ordered store path plan =
  let buffer = Store.buffer store in
  Buffer_manager.reset buffer;
  Disk.reset_clock (Buffer_manager.disk buffer);
  run ?config ?contexts ?trace ?ordered store path plan

let swizzle_hit_rate m =
  let touched = m.swizzle_hits + m.swizzle_misses in
  if touched = 0 then 0.0 else float_of_int m.swizzle_hits /. float_of_int touched

let pp_metrics ppf m =
  Format.fprintf ppf
    "@[<v>total %.4fs (io %.4fs, cpu %.4fs)@,\
     reads %d (seq %d, rnd %d, seek-dist %d), async %d@,\
     batches %d (%d pages, %d coalesced), scan windows %d (%d pages)@,\
     buffer: lookups %d hits %d misses %d@,\
     instances %d crossings %d specs %d/%d/%d (S peak %d, Q peak %d)@,\
     queue: enqueued %d served %d@,\
     index: entries %d clusters %d residuals %d@,\
     fused: transitions %d states %d@,\
     cache: hits %d misses %d evictions %d shared %d@,\
     writers: commits %d latch-waits %d retries %d stales %d@,\
     2q: protected hits %d@,\
     swizzle: hits %d misses %d (%.0f%% hit rate)@,\
     clusters visited %d%s@]"
    m.total_time m.io_time m.cpu_time m.page_reads m.sequential_reads m.random_reads
    m.seek_distance m.async_reads m.batched_reads m.batch_pages m.coalesce_runs m.scan_windows
    m.scan_window_pages m.buffer_lookups m.buffer_hits m.buffer_misses m.instances
    m.crossings m.specs_created m.specs_stored m.specs_resolved m.s_peak m.q_peak
    m.q_enqueued m.q_served m.index_entries m.index_clusters m.index_residuals
    m.fused_transitions m.fused_states m.cache_hits m.cache_misses m.cache_evictions
    m.shared_demand m.writer_commits m.latch_waits m.snapshot_retries m.cluster_stales
    m.scan_resist_hits
    m.swizzle_hits
    m.swizzle_misses
    (100. *. swizzle_hit_rate m)
    m.clusters_visited
    (if m.fell_back then " [fell back]" else "")
