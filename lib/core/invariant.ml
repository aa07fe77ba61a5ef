module Store = Xnav_store.Store
module Buffer_manager = Xnav_storage.Buffer_manager
module Io_scheduler = Xnav_storage.Io_scheduler

let post_run ?io ?results ctx =
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun msg -> violations := msg :: !violations) fmt in
  let buffer = Store.buffer ctx.Context.store in
  let sched = Buffer_manager.scheduler buffer in
  let c = ctx.Context.counters in

  (* Storage layer: no pins survive a completed run, no I/O request
     dangles, and the scheduler's internal structures agree. *)
  let pinned = Buffer_manager.pinned_count buffer in
  if pinned <> 0 then fail "buffer: %d frames still pinned after the run" pinned;
  let pending = Io_scheduler.pending_count sched in
  if pending <> 0 then fail "io-scheduler: %d requests still pending after the run" pending;
  let completed = Buffer_manager.completed_count buffer in
  if completed <> 0 then
    fail "buffer: %d batch-installed pages never delivered after the run" completed;
  (* Chains into [Io_scheduler.consistency_error], and additionally
     checks the batch pipeline: no page both installed-and-queued and
     still pending, every queued completion resident and pinned. *)
  (match Buffer_manager.consistency_error buffer with
  | None -> ()
  | Some msg -> fail "io-scheduler: %s" msg);

  (* The I/O operator: every queued continuation must have been served
     (XSchedule's refused prefetches are clusters with queued items, so
     they are covered too). *)
  (match io with
  | None -> ()
  | Some (op : Io_operator.handle) ->
    let p = op.visit.Io_operator.pending in
    if p <> 0 then fail "io-operator: %d continuations still queued after the run" p);

  (* Counter conservation: the per-counter checks come from
     {!Counters.table} and {!Context.knobs} — no counter is negative,
     and none is non-zero while the knob that guards it is off (that is
     what makes each knob-off run the historical regime). The relational
     checks follow. *)
  List.iter (fail "%s") (Counters.negative c);
  List.iter
    (fun (k : Context.knob) ->
      if not (k.Context.enabled ctx.Context.config) then
        Option.iter
          (fun values -> fail "%s: %s %s" k.Context.name values k.Context.off_text)
          (Counters.knob_off k.Context.guard c))
    Context.knobs;
  (* Scan-window accounting: pages are only swept inside a window. *)
  if c.Context.scan_windows = 0 && c.Context.scan_window_pages > 0 then
    fail "scan-window: %d pages swept without any window opening" c.Context.scan_window_pages;
  (* Speculations are discharged from S, so each resolution must have a
     matching store. (specs_created counts seeds, which fan out through
     the XStep chain — it bounds neither stored nor resolved.) *)
  if c.Context.specs_resolved > c.Context.specs_stored then
    fail "speculation: %d resolved but only %d stored" c.Context.specs_resolved
      c.Context.specs_stored;
  if c.Context.s_peak > c.Context.specs_stored then
    fail "speculation: s_peak %d exceeds total stored %d" c.Context.s_peak
      c.Context.specs_stored;
  if c.Context.q_served + c.Context.q_dropped <> c.Context.q_enqueued then
    fail "xschedule: %d items enqueued but %d served + %d dropped" c.Context.q_enqueued
      c.Context.q_served c.Context.q_dropped;
  if c.Context.q_peak > c.Context.q_enqueued then
    fail "xschedule: q_peak %d exceeds total enqueued %d" c.Context.q_peak c.Context.q_enqueued;
  (* Index accounting: residuals require a pinned cluster (covering
     entries do not — they are served straight from the partition), and
     clusters pinned by XIndex are a subset of all visits. *)
  if c.Context.index_clusters > c.Context.clusters_visited then
    fail "xindex: %d clusters pinned but only %d visited in total" c.Context.index_clusters
      c.Context.clusters_visited;
  if c.Context.index_clusters = 0 && c.Context.index_residuals > 0 then
    fail "xindex: %d residuals served without pinning a cluster" c.Context.index_residuals;
  (* Result-cache accounting: a single run is a hit or a miss but never
     both, and a hit answers without executing — so it cannot coexist
     with any I/O or operator work in the same context. *)
  if c.Context.cache_hits > 0 && c.Context.cache_misses > 0 then
    fail "cache: %d hits and %d misses in one run" c.Context.cache_hits c.Context.cache_misses;
  if c.Context.cache_evictions > 0 && c.Context.cache_misses = 0 then
    fail "cache: %d evictions without a miss installing an entry" c.Context.cache_evictions;
  if c.Context.cache_hits > 0 && c.Context.clusters_visited + c.Context.instances > 0 then
    fail "cache: a hit (%d) coexists with executed work (%d clusters, %d instances)"
      c.Context.cache_hits c.Context.clusters_visited c.Context.instances;
  (* Writer accounting: cluster-granular cache invalidation only happens
     at a writer's commit, and a writer context never serves cached
     reads (writer jobs bypass the front door entirely). latch_waits
     with zero commits stays legal: a writer can wait and then skip
     every op whose target a concurrent delete removed. *)
  if c.Context.cluster_stales > 0 && c.Context.writer_commits = 0 then
    fail "writers: %d cluster stales recorded without any commit" c.Context.cluster_stales;
  if c.Context.writer_commits > 0 && c.Context.cache_hits + c.Context.cache_misses > 0 then
    fail "writers: a writer context (%d commits) also served cached reads (%d hits, %d misses)"
      c.Context.writer_commits c.Context.cache_hits c.Context.cache_misses;

  (* Result conservation (reordered plans): XAssembly's result set is
     duplicate-free, so the plan's final answer must have exactly
     [results_emitted] nodes — the top-level duplicate elimination must
     find nothing to remove. *)
  (match results with
  | None -> ()
  | Some n ->
    if n <> c.Context.results_emitted then
      fail "xassembly: emitted %d distinct results but the plan returned %d"
        c.Context.results_emitted n);

  List.rev !violations

let enforce ?io ?results ctx =
  match post_run ?io ?results ctx with
  | [] -> ()
  | violations ->
    failwith (Printf.sprintf "invariant violation: %s" (String.concat "; " violations))
