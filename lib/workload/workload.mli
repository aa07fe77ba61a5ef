(** Concurrent multi-query workload engine.

    The session layer the paper's outlook anticipates: closed-loop
    clients whose queries are admitted over shared
    {!Xnav_storage.Buffer_manager} / {!Xnav_storage.Io_scheduler} pools,
    their XSchedule/XScan/Simple iterators interleaved by a
    round-robin-with-cost-credit scheduler. Concurrent queries' cluster
    requests merge in a pool's pending set, so demand from different
    queries coalesces into the same sequential runs a single XSchedule
    already exploits — contention becomes sharing.

    {2 One engine, two topologies}

    There is one scheduler loop ({!run_topology}). It runs over a
    {e topology}: an array of {e pools} (disk + buffer + scheduler, each
    with its own waiting queue, active lanes and round-robin cursor) and
    an array of {e sites} (a store and the index of the pool it lives
    on). Every job names a site; it queues, is admitted, pins, reads and
    is timed on that site's pool.

    - {!run_clients} is the engine over one pool and one site.
    - [Shard.run_clients] is the engine over K pools, one site per
      tenant document; it adds placement, input checks and per-tenant /
      per-shard statistics.

    {2 Scheduling}

    Each turn has two levels. The {e balancer} picks a pool: round-robin
    over pools with runnable lanes, under a {e cross-site fairness
    gate} — every site's {e pressure} (turns since it was last served
    or admitted) is tracked, and when the worst pressure exceeds
    [2 * active_lanes + 4] the gate serves that site's lane directly.
    With a single site the gate cannot fire: the site is served every
    turn, so its pressure never exceeds 1.

    Within the chosen pool, one query is served for a {e cost credit}
    (the [quantum], in simulated disk seconds): the query runs until its
    credit is spent, until it triggers a random I/O (the expensive event
    the paper's cost model penalises — the query yields immediately so
    cheaper work can run while the head is repositioned), or until it
    finishes. Queries whose queued demand is already cheap to serve on
    their pool — a demanded cluster is resident, falls inside another
    query's open scan window, or sits in a coalescible pending run
    ([pid±1] also pending) — are {e boosted} ahead of plain round-robin
    order, which is what turns cross-query contention into cross-query
    batching. Fairness is observable: the chosen query's
    {!Xnav_core.Context.counters.served_ticks} and every other runnable
    query's [starved_ticks], on any pool, advance each turn.

    {2 Admission}

    A query is only admitted to a pool while its worst-case steady pin
    demand cannot wedge that pool (generalising the capacity-1
    release-before-acquire fix): every plan holds at most one steady pin
    (XSchedule's current cluster; Simple/XScan navigation pins are
    transient) plus one frame of headroom for the page being entered, so
    [n] concurrent queries need [2n] frames and the next query is
    admitted iff [2 (n + 1) <= capacity] — except that a query is
    {e always} admitted when it would run alone, which keeps tiny pools
    (capacity 1) live by degrading to serial execution. Batch installs
    can still transiently overcommit a small pool; that cannot deadlock,
    because a wedged query raises
    {!Xnav_storage.Buffer_manager.Buffer_full}, is torn down through
    {!Xnav_storage.Buffer_manager.abort_async} and is recomputed serially
    on its own pool's clock once the pools are quiescent (status
    {!constructor:Recovered}). A spec {!Xnav_core.Exec.plan_error}
    rejects fails the whole run before any state moves.

    {2 The repeat-traffic front door}

    With {!Xnav_core.Context.config.result_cache} set the engine serves
    repeated statements without re-executing them, at two levels.
    {e Level 1}: admission consults the process-wide
    {!Xnav_core.Result_cache} — a hit completes the job instantly (no
    lane, no planning, no I/O), and every completed stream job installs
    its answer for the next identical statement. Entries key on the
    store, so co-located sites never serve each other's answers.
    {e Level 2}: a job may {e follow} an in-flight {e leader} lane with
    the same store and the same path text — its pending cluster demand
    would duplicate work the pool is about to do anyway — and receives
    the leader's answer the instant the shared scan completes. Followers
    never cross stores (so never tenants), pin nothing and bypass
    admission; fairness credits ([served_ticks]) are charged to all
    sharers each time the leader is served, and each deduped job reports
    {!Xnav_core.Context.counters.shared_demand}. Jobs with a [timeout]
    never share (a follower's fate is its leader's). With the knob off
    (the default) both levels are inert and the engine reproduces the
    historical execution byte for byte.

    {2 Writers: online updates under concurrent reads}

    A spec whose [ops] list is non-empty is a {e writer job}: instead of
    evaluating a path it applies in-place updates
    ({!Xnav_store.Update.insert_element} / [delete_subtree]) against its
    store, interleaved turn-by-turn with the readers. Writers run on
    single-pool topologies only ([Shard.run_clients] rejects them up
    front): cluster latches are keyed by page id and the commit log is
    kept per store, so neither means anything across several stores.
    Three rules keep the mix coherent:

    - {e Cluster latches (writer–writer)}: each op declares its target
      cluster; a writer latches it exclusively for the op's duration
      (acquire one turn, commit the next — [latch_waits] counts blocked
      turns). At acquire time the target is re-validated; an op whose
      target a concurrent delete removed is skipped. Clusters an op
      escalates into mid-commit (overflow allocation, purged subtree
      pages) are not latched — the commit is atomic within the turn, so
      nothing else observes the escalation.
    - {e Snapshot reads (writer–reader)}: readers are latch-free. A
      stream records every cluster it observes and the mutation stamp it
      started under; a commit into an observed cluster
      ({!Xnav_store.Store.page_stamp} exceeding the snapshot) forces the
      stream to restart from scratch under a fresh stamp
      ([snapshot_retries]). Commits it never observed are invisible to
      it — a running query always sees a single consistent snapshot.
      The check costs nothing while the store's
      {!Xnav_store.Store.mutation_stamp} has not moved.
    - {e Cluster-granular invalidation}: a commit stales only the
      result-cache entries whose recorded cluster footprint intersects
      its write set ({!Xnav_core.Result_cache.stale_clusters}, counted
      as [cluster_stales]), the decoded views of the written clusters,
      and the path-partition classes they cover — repeat statements over
      untouched paths keep hitting the cache and the index across
      writer traffic.

    Each job's [finish_commit] records how many commits (engine-wide)
    preceded its completion, and [result.commit_log] lists the committed
    ops in serial order — together they make the concurrent schedule
    replayable: evaluating each reader's statement on a twin store after
    applying the first [finish_commit] ops must reproduce its answer.

    {2 Clocks}

    All latencies ([submitted]/[started]/[finished], and the derived
    [latency] and [pin_wait]) are measured on the simulated clock of the
    job's pool — deterministic, so percentiles are CI-stable. Process
    CPU time is reported separately at the engine level. *)

type update_op =
  | Insert_child of { parent : Xnav_store.Node_id.t; tag : Xnav_xml.Tag.t }
      (** Append a new last child under [parent]. *)
  | Delete_subtree of Xnav_store.Node_id.t
      (** Remove the subtree rooted at this (non-root) node. *)

type spec = {
  label : string;
  path : Xnav_xpath.Path.t;
  plan : Xnav_core.Plan.t;
  timeout : float option;
      (** Abort the job once it has been running (admitted) for this many
          simulated seconds. The abort unwinds through
          {!Xnav_storage.Buffer_manager.abort_async}; a timeout of [0.0]
          aborts before the first scheduling turn. *)
  ops : update_op list;
      (** Non-empty makes this a writer job: [path]/[plan] are unused, the
          ops are applied in order (two turns each), and the job reports
          no nodes. [[]] is a plain read job. *)
}

type status =
  | Completed  (** Ran to the end of its stream. *)
  | Timed_out  (** Aborted at its deadline; [nodes] is empty. *)
  | Recovered
      (** The stream raised [Buffer_full] under pool contention (while
          being prepared or later) and was abandoned; the answer was
          recomputed serially with the Simple plan once the pool
          drained, so [nodes] is still correct. *)

val status_to_string : status -> string

type job = {
  job_label : string;
  client : int;
  status : status;
  nodes : Xnav_store.Store.info list;  (** Duplicate-free; document order if [ordered]. *)
  count : int;
  submitted : float;
  started : float;  (** Admission time; [started -. submitted] is the pin wait. *)
  finished : float;
  latency : float;  (** [finished -. submitted], simulated seconds. *)
  pin_wait : float;
  served_ticks : int;
  starved_ticks : int;
  yields : int;  (** Turns this job ended early by triggering a random I/O. *)
  boosts : int;  (** Turns this job was served ahead of round-robin order. *)
  shared : bool;
      (** The job was deduped into another client's identical in-flight
          scan (level 2) instead of executing its own. *)
  cache_hit : bool;
      (** The job was answered from the result cache at admission
          (level 1) — it never held a lane slot. *)
  writer_commits : int;  (** Ops this (writer) job committed. *)
  latch_waits : int;  (** Turns this writer spent blocked on a latch. *)
  snapshot_retries : int;
      (** Stream restarts forced by commits into observed clusters. *)
  finish_commit : int;
      (** Engine-wide commit count at this job's completion — the serial
          replay point at which its answer must be reproducible. *)
  fell_back : bool;
}

type result = {
  jobs : job list;  (** In completion order. *)
  io_time : float;
  cpu_time : float;
  total_time : float;
  page_reads : int;
  seek_distance : int;
  batched_reads : int;
  batch_pages : int;
  coalesce_runs : int;
  max_concurrent : int;  (** High-water mark of simultaneously admitted queries. *)
  turns : int;  (** Scheduling turns taken. *)
  shared_jobs : int;  (** Jobs deduped into a leader's shared scan. *)
  cache_hits : int;  (** Jobs answered from the result cache at admission. *)
  cache_misses : int;
      (** Completed stream jobs that installed their answer into the
          cache (0 with the front door off). *)
  writer_commits : int;  (** Total ops committed across all writers. *)
  latch_waits : int;
  snapshot_retries : int;
  cluster_stales : int;
      (** Result-cache entries proactively dropped because a commit's
          write set intersected their cluster footprint. *)
  commit_log : update_op list;
      (** Every committed op, in commit order — replaying this serially
          on a twin store reproduces the final document. *)
  violations : string list;
      (** Invariant violations found by the end-of-run sweep (always
          checked; a non-empty list here is an engine bug). With
          [config.validate] set the sweep additionally runs
          {!Xnav_core.Exec.stream_violations} per query and raises on any
          finding. *)
}

val run_clients :
  ?config:Xnav_core.Context.config ->
  ?quantum:float ->
  ?ordered:bool ->
  cold:bool ->
  Xnav_store.Store.t ->
  spec list array ->
  result
(** [run_clients store clients] runs one closed-loop client per array
    entry: each client submits its first job at engine start and its next
    job the moment the previous one finishes (in any status), until its
    list is exhausted. [quantum] is the per-turn cost credit in simulated
    seconds (default [0.004], about one random access); [ordered]
    (default [true]) sorts each job's nodes into document order. [cold]
    resets the buffer pool and disk clock first.
    @raise Invalid_argument on an empty client array or a read spec
    {!Xnav_core.Exec.plan_error} rejects, before any job runs.
    @raise Failure if any frame is left pinned at the end, or (with
    [config.validate]) on an invariant violation. *)

val run :
  ?config:Xnav_core.Context.config ->
  ?quantum:float ->
  ?ordered:bool ->
  cold:bool ->
  Xnav_store.Store.t ->
  spec list ->
  result
(** [run store specs] submits every spec at once, each as its own
    single-job client — maximal concurrency, subject to admission. *)

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [0..100]: the nearest-rank percentile
    of [xs] (0 on an empty list). *)

(** {2 Topologies}

    The engine beneath {!run_clients} and [Shard.run_clients]. *)

type pool_stat = {
  pool_reads : int;
  pool_io : float;  (** Simulated seconds this pool's disk spent. *)
  pool_turns : int;  (** Turns the balancer granted this pool. *)
  pool_scan_resist_hits : int;  (** Protected-queue hits (0 with 2Q off). *)
}

type topology_run = {
  result : result;  (** Disk figures summed over the pools. *)
  site_jobs : (int * job) list;  (** [result.jobs] paired with each job's site. *)
  pools : pool_stat array;  (** One per pool, in pool order. *)
  rebalance_moves : int;
      (** Turns the cross-site fairness gate overrode the balancer. *)
}

val run_topology :
  config:Xnav_core.Context.config option ->
  quantum:float ->
  ordered:bool ->
  cold:bool ->
  pools:Xnav_storage.Buffer_manager.t array ->
  sites:(Xnav_store.Store.t * int) array ->
  (int * spec) list array ->
  topology_run
(** [run_topology ~pools ~sites clients] runs closed-loop clients whose
    jobs name a site by index: [sites.(i)] is a store and the index of
    the pool it lives on (the store's own buffer manager). Arguments and
    failures are those of {!run_clients}; [cold] resets every pool. *)
