(** Plan execution: builds the operator pipeline for a plan, drains it,
    and reports results plus the full cost breakdown.

    Timing model: [io_time] is the simulated disk clock consumed by the
    run (deterministic, from the {!Xnav_storage.Disk} cost model) and
    [cpu_time] is measured process CPU time; [total_time] is their sum.
    This mirrors the paper's Table 3, which reports total and CPU time
    separately — with the difference that our I/O seconds come from a
    reproducible simulator rather than a wall clock. *)

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
  batched_reads : int;  (** Vectored multi-page reads issued. *)
  batch_pages : int;  (** Pages delivered through those reads. *)
  coalesce_runs : int;  (** Vectored reads that carried ≥ 2 pages. *)
  scan_windows : int;  (** Adaptive scan windows XSchedule entered. *)
  scan_window_pages : int;  (** Pages swept inside those windows. *)
  instances : int;
  crossings : int;
  specs_created : int;
  specs_stored : int;
  specs_resolved : int;
  s_peak : int;
  q_peak : int;
  q_enqueued : int;  (** Items that entered XSchedule's queue [Q]. *)
  q_served : int;  (** Items drained from [Q] into an agenda. *)
  clusters_visited : int;
  swizzle_hits : int;  (** Swizzled decode-cache hits during the run. *)
  swizzle_misses : int;  (** First-decode misses (and post-update refills). *)
  index_entries : int;  (** Instances seeded from partition entry lists. *)
  index_clusters : int;  (** Clusters the XIndex operator pinned. *)
  index_residuals : int;  (** Border continuations served back through XIndex. *)
  fused_transitions : int;
      (** Automaton transitions the fused chain processed (cursor
          emissions consumed). 0 when fused evaluation is off. *)
  fused_states : int;  (** Work-stack frames the fused chain pushed. *)
  cache_hits : int;
      (** 1 when this run was answered from {!Result_cache} (every other
          counter is then 0 — no planning, no I/O). Requires
          [config.result_cache]. *)
  cache_misses : int;
      (** 1 when this run was cacheable but had to execute; its answer
          was installed for the next identical statement. *)
  cache_evictions : int;  (** LRU evictions the installation caused. *)
  shared_demand : int;
      (** Workload-only: 1 when this job was deduped into another
          client's identical in-flight scan. 0 for stand-alone runs. *)
  writer_commits : int;
      (** Workload-only: update operations a writer job committed. 0 for
          read jobs and stand-alone runs. *)
  latch_waits : int;
      (** Workload-only: turns a writer spent blocked on another
          writer's cluster latch. 0 for read jobs. *)
  snapshot_retries : int;
      (** Workload-only: reader stream restarts forced by a writer
          committing into an already-observed cluster. 0 for
          stand-alone runs. *)
  cluster_stales : int;
      (** Workload-only: result-cache entries a writer's commits
          proactively dropped (footprint intersected the write set). 0
          for read jobs. *)
  scan_resist_hits : int;
      (** Buffer hits served from the 2Q-protected main queue during the
          run. 0 with [config.scan_resistant] off. *)
  fell_back : bool;
}

val swizzle_hit_rate : metrics -> float
(** [swizzle_hits / (swizzle_hits + swizzle_misses)], 0 when no view was
    touched (e.g. the Simple plan, which never swizzles). *)

type result = {
  nodes : Xnav_store.Store.info list;
      (** Result nodes, duplicate-free; in document order unless
          [ordered:false]. *)
  count : int;
  metrics : metrics;
}

val plan_error : Xnav_xpath.Path.t -> Plan.t -> string option
(** [plan_error path plan] describes why [plan] cannot evaluate [path]:
    the path is empty, or a reordered plan is asked for a path with
    non-downward axes. [None] means {!run} and {!prepare} accept the
    pair. Callers that must reject bad input before taking any resource
    (the workload engine, before any lane pins a frame) check it up
    front. *)

val run :
  ?config:Context.config ->
  ?contexts:Xnav_store.Node_id.t list ->
  ?trace:(string -> unit) ->
  ?ordered:bool ->
  Xnav_store.Store.t ->
  Xnav_xpath.Path.t ->
  Plan.t ->
  result
(** [run store path plan] evaluates [path] from [contexts] (default: the
    document root). [ordered] (default [true]) re-establishes document
    order by sorting on ordpaths (Sec. 5.5) — pass [false] for
    aggregates like [count()] where order is irrelevant.

    With [config.result_cache] set, a root-context run first consults
    {!Result_cache} (keyed on the path text, validated against the
    store's mutation stamp): a hit skips planning and I/O entirely and
    reports [cache_hits = 1] with every other metric zero; a miss
    executes normally and installs its answer. {!Query_exec} inherits
    this per trunk segment. Non-root contexts always execute.

    @raise Invalid_argument if [path] is empty, or a reordered plan is
    requested for a path with non-downward axes.

    The buffer pool is left warm; callers wanting the paper's cold-cache
    regime reset the buffer and disk clock first (see {!cold_run}). *)

type stream
(** A prepared, lazily evaluated plan: results are pulled one at a time.
    Streams make interleaved (concurrent) execution possible — see
    {!Interleave}. *)

val prepare :
  ?config:Context.config ->
  ?contexts:Xnav_store.Node_id.t list ->
  ?trace:(string -> unit) ->
  Xnav_store.Store.t ->
  Xnav_xpath.Path.t ->
  Plan.t ->
  stream
(** Build the operator pipeline without draining it. The stream shares
    the store's buffer pool and asynchronous I/O queue with any other
    live stream — concurrent streams' requests merge in the scheduler,
    which is exactly the multi-query benefit the paper's outlook
    anticipates.
    @raise Invalid_argument when {!plan_error} reports the pair. *)

val stream_next : stream -> Xnav_store.Store.info option
(** The next result node (duplicate-free for reordered plans; the Simple
    plan may repeat nodes unless intermediate dedup is on — {!run}
    deduplicates at the end). [None] is final. *)

val stream_fell_back : stream -> bool

val stream_ctx : stream -> Context.t
(** The stream's execution context — counters (including the
    workload-fairness [served_ticks]/[starved_ticks]) accumulate here as
    the stream is pulled. *)

val stream_demand : stream -> int list
(** The clusters the stream's XSchedule operator currently has queued
    items for (unordered; [[]] for plans without an XSchedule). The
    workload scheduler boosts a stream whose demand overlaps work that is
    already cheap: resident pages, another stream's open scan window, or
    a coalescible pending run. *)

val stream_scan_window : stream -> (int * int) option
(** The stream's active adaptive scan window as inclusive page bounds,
    if its XSchedule has one open. *)

val stream_violations : ?results:int -> stream -> string list
(** {!Invariant.post_run} over the stream's context and I/O operator.
    Only meaningful once the whole buffer pool is quiescent (every
    concurrent stream finished or abandoned) — the buffer-level checks
    are global. *)

val stream_abandon : stream -> unit
(** Tear the stream's I/O operator down (release its cluster pin,
    cancel its outstanding I/O, drop queued work). Use when a
    post-fallback stream raised {!Xnav_storage.Buffer_manager.Buffer_full}
    — its results must then be recomputed with the simple method. *)

val cold_run :
  ?config:Context.config ->
  ?contexts:Xnav_store.Node_id.t list ->
  ?trace:(string -> unit) ->
  ?ordered:bool ->
  Xnav_store.Store.t ->
  Xnav_xpath.Path.t ->
  Plan.t ->
  result
(** {!run} preceded by a buffer reset and disk-clock reset — each
    measurement starts cold, as in the paper's setup (Sec. 6.1). *)

val pp_metrics : Format.formatter -> metrics -> unit
