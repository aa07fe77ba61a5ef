(** Plan execution: builds the operator pipeline for a plan, drains it,
    and reports results plus the full cost breakdown.

    Timing model: [io_time] is the simulated disk clock consumed by the
    run (deterministic, from the {!Xnav_storage.Disk} cost model) and
    [cpu_time] is measured process CPU time; [total_time] is their sum.
    This mirrors the paper's Table 3, which reports total and CPU time
    separately — with the difference that our I/O seconds come from a
    reproducible simulator rather than a wall clock. *)

include module type of struct include Counters.Record end

type metrics = counters
(** The run's {!Counters} record: operator counters plus the disk and
    buffer deltas, the times and [fell_back]; see {!Counters.table} for
    each field. *)

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

val context : config:Context.config -> Xnav_store.Store.t -> Context.t
(** A statement's context over [store], with the pool-wide knob of
    [config] applied: [scan_resistant] to the store's buffer pool. Exec
    runs and Multi lanes open their statements through it, so a run
    never inherits the previous run's settings. *)

val root_only : Xnav_store.Store.t -> Xnav_store.Node_id.t list -> bool
(** [root_only store contexts]: the contexts are exactly the document
    root — the statements the result cache and the path partition
    serve, and the ones a shared scan may seed with [//]. *)

val chain :
  Context.t ->
  Xnav_xpath.Path.t ->
  (unit -> Path_instance.t option) ->
  unit ->
  Path_instance.t option
(** [chain ctx path producer] is a reordered plan's step chain over the
    I/O operator's [producer]: the fused automaton ({!Fused}) when
    [ctx]'s [config.fused] is set, else the per-step {!Xstep} fold,
    which reproduces the historical counter stream and I/O trace. Every
    reordered plan and every {!Multi} lane is built on it. *)

val answer : ordered:bool -> Xnav_store.Store.info Vec.t -> Xnav_store.Store.info list
(** The final answer of a run from the nodes in arrival order:
    duplicates dropped (first arrival kept; the Simple method needs this,
    Sec. 5.1), then document order re-established by ordpath (Sec. 5.5)
    when [ordered]. Every driver finishes through it. *)

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
    reports [cache_hits = 1] with every other counter zero; a miss
    executes normally and installs its answer ({!Result_cache.install}:
    footprint from the run's touch log, none for an index-seeded run).
    The answer is {!answer} of the drained nodes. {!Query_exec} inherits
    this per trunk segment. Non-root contexts always execute.

    @raise Invalid_argument if [path] is empty, or a reordered plan is
    requested for a path with non-downward axes.

    The buffer pool is left warm; callers wanting the paper's cold-cache
    regime reset the buffer and disk clock first (see {!cold_run}). *)

type stream
(** A prepared, lazily evaluated plan: results are pulled one at a time.
    Streams make interleaved (concurrent) execution possible — the
    workload engine ([Xnav_workload.Workload]) serves many of them over
    one pool. *)

val prepare :
  ?config:Context.config ->
  ?contexts:Xnav_store.Node_id.t list ->
  ?trace:(string -> unit) ->
  Xnav_store.Store.t ->
  Xnav_xpath.Path.t ->
  Plan.t ->
  stream
(** Build the operator pipeline without draining it: the statement is
    opened exactly as {!run} opens it (plan check, root-context default,
    trace, the pool's eviction policy) and the stream is the pipeline
    {!run} drains. The stream shares
    the store's buffer pool and asynchronous I/O queue with any other
    live stream — concurrent streams' requests merge in the scheduler,
    which is exactly the multi-query benefit the paper's outlook
    anticipates.
    @raise Invalid_argument when {!plan_error} reports the pair. *)

val stream_next : stream -> Xnav_store.Store.info option
(** The next result node (duplicate-free for reordered plans; the Simple
    plan may repeat nodes unless intermediate dedup is on — {!run}
    finishes through {!answer}). [None] is final. *)

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


(** {1 The measured-run boundary}

    Every driver measures a run the same way: {!run} and {!cold_run},
    {!Multi.run}, {!Query_exec.run}, and the workload engine once per
    pool. A {!snapshot} of the pool is taken before the run and a
    {!measure} fills a counters record after it, so the cold reset, the
    disk/buffer/swizzle deltas, the times and the leftover-pin check are
    written once. *)

type snapshot
(** A pool's disk, buffer, swizzle, CPU-clock and allocation readings at
    the start of a run. *)

val snapshot :
  cold:bool -> Xnav_storage.Buffer_manager.t -> Xnav_store.Store.t list -> snapshot
(** [snapshot ~cold buffer stores] reads the pool [buffer], its disk and
    the swizzle counters of [stores] (the stores living on the pool).
    With [cold] the pool and the disk clock are reset first — the
    paper's cold-cache regime (Sec. 6.1).
    @raise Invalid_argument with [cold] if a frame is still pinned. *)

val measure : who:string -> snapshot -> metrics -> unit
(** [measure ~who snap m] sets [m]'s rows of the Run, Disk, Buffer and
    Store layers of {!Counters.table} to the deltas since [snap]:
    [io_time] (simulated), [cpu_time] (process), [total_time] (their
    sum), [minor_words], every disk and buffer counter and the swizzle
    hits and misses. [fell_back] and the operator rows are left as they
    are.
    @raise Failure ["<who>: N pages left pinned"] if a frame of the pool
    is still pinned. *)
