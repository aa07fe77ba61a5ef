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

    {!run_topology} runs over an array of {e pools} (disk + buffer +
    scheduler) and an array of {e sites} (a store and the index of its
    pool). Every job names a site; it queues, is admitted, pins, reads
    and is timed on that site's pool. {!run_clients} is the engine over
    one pool and one site; [Shard.run_clients] runs it over K pools,
    one site per tenant, adding placement and per-tenant / per-shard
    statistics.

    {2 Phases}

    The run's state is one record, moved by named phases. Each turn,
    {e admit} takes queued jobs into each pool (as a follower, a cache
    hit or a lane), {e expire} aborts lanes past their deadline, and
    {e pick} gives the turn to one lane and charges every lane's
    fairness ticks. The lane is then served: {e serve_reader} checks the
    snapshot, restarts the stream on a conflict and runs one quantum;
    {e serve_writer} acquires or commits one op. A lane that ends goes
    through {e finish}, which answers its followers and {e submit}s the
    client's next job. Once no work is left, {e recover} recomputes
    wedged jobs serially, {e sweep} checks the invariants and
    {e report} builds the result.

    {2 Scheduling}

    {e pick} has two levels. The {e balancer} picks a pool: round-robin
    over pools with runnable lanes, under a {e cross-site fairness
    gate} — when the worst site {e pressure} (turns since the site was
    last served or admitted) exceeds [2 * active_lanes + 4], that site's
    lane is served directly. A single site is served every turn, so the
    gate cannot fire.

    Within the chosen pool, one query is served for a {e cost credit}
    (the [quantum], in simulated disk seconds): it runs until the credit
    is spent, until it triggers a random I/O (the event the paper's cost
    model penalises: it yields so cheaper work can run while the head
    moves), or until it finishes. A query whose queued demand is cheap on
    its pool — a demanded cluster is resident, inside another query's
    open scan window, or in a coalescible pending run ([pid±1] also
    pending) — is {e boosted} ahead of round-robin order, which turns
    cross-query contention into cross-query batching. Each turn the
    chosen query's [served_ticks] and every other runnable query's
    [starved_ticks], on any pool, advance.

    {2 Admission}

    A plan holds at most one steady pin plus one frame of headroom, so
    a pool admits its next query iff [2 (n + 1) <= capacity], or when
    the query would run alone (tiny pools degrade to serial execution).
    Batch installs can still overcommit a small pool; a wedged query
    raises {!Xnav_storage.Buffer_manager.Buffer_full}, is torn down
    through {!Xnav_storage.Buffer_manager.abort_async} and is recomputed
    serially on its pool's clock once the pools are quiescent
    ({!constructor:Recovered}). A spec {!Xnav_core.Exec.plan_error}
    rejects fails the whole run before any state moves.

    {2 The repeat-traffic front door}

    With {!Xnav_core.Context.config.result_cache} set, repeated
    statements are served without re-executing them. {e Level 1}:
    admission consults the process-wide {!Xnav_core.Result_cache} — a
    hit completes the job at once (no lane, no planning, no I/O) — and
    every completed stream job installs its answer. Entries key on the
    store, so co-located sites never serve each other's answers.
    {e Level 2}: a job may {e follow} an in-flight {e leader} lane with
    the same store and path text, and receives the leader's answer the
    instant the shared scan completes. Followers pin nothing, bypass
    admission and are charged [served_ticks] whenever their leader is
    served. Jobs with a [timeout] never share. With the knob off (the
    default) both levels are inert and the engine reproduces the
    historical execution byte for byte.

    {2 Writers: online updates under concurrent reads}

    A spec whose [ops] list is non-empty is a {e writer job}: it applies
    in-place updates ({!Xnav_store.Update.insert_element} /
    [delete_subtree]) to its store, interleaved turn by turn with the
    readers. Writers run on single-pool topologies only
    ([Shard.run_clients] rejects them): latches are keyed by page id and
    the commit log is kept per store. Three rules keep the mix coherent:

    - {e Cluster latches (writer–writer)}: a writer latches each op's
      target cluster exclusively (acquire one turn, commit the next;
      [latch_waits] counts blocked turns). An op whose target a
      concurrent delete removed is skipped at acquire time; an op whose
      commit raises a failure {!Xnav_store.Update} documents
      ([No_room_for_border], [Invalid_argument], [Failure]) or
      [Buffer_full] is skipped at commit time, and any other exception
      propagates. Skipped ops are not in the commit log. Clusters an op
      escalates into mid-commit are not latched: the commit is atomic
      within the turn.
    - {e Snapshot reads (writer–reader)}: readers are latch-free. A
      stream records every cluster it observes and the mutation stamp it
      started under; a commit into an observed cluster
      ({!Xnav_store.Store.page_stamp} past the snapshot), or any commit
      for an index-seeded stream, restarts it from scratch under a fresh
      stamp ([snapshot_retries]). The check costs nothing while
      {!Xnav_store.Store.mutation_stamp} has not moved.
    - {e Cluster-granular invalidation}: a commit stales only the
      result-cache entries whose cluster footprint meets its write set
      ([cluster_stales]), the decoded views of the written clusters and
      the path-partition classes they cover.

    Each job's [finish_commit] counts the commits that preceded its
    completion, and [result.commit_log] lists the committed ops in
    order: evaluating a reader's statement on a twin store after the
    first [finish_commit] ops must reproduce its answer.

    {2 Metrics and clocks}

    Each job carries one {!Xnav_core.Exec.metrics} record across its
    attempts ([job.metrics]): its operator rows, its workload rows and
    its cache rows. A job that never restarted or recovered reports its
    lane's own record; a snapshot restart folds the abandoned stream's
    counters in with {!Xnav_core.Counters.add}, and a recovered job adds
    its serial recompute's. [result.metrics] holds the pools' measured
    rows (run, disk, buffer, store) summed, plus every job's other rows
    summed. The counter fields of {!type-job} and {!type-result} are read from
    these records. Latencies ([submitted], [started], [finished]) are
    read on the simulated clock of the job's pool, so percentiles are
    CI-stable; process CPU time is [result.metrics.cpu_time]. *)

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
  served_ticks : int;
  starved_ticks : int;
  yields : int;  (** Turns this job ended early by triggering a random I/O. *)
  boosts : int;  (** Turns this job was served ahead of round-robin order. *)
  writer_commits : int;
  snapshot_retries : int;
  finish_commit : int;
      (** Engine-wide commit count at this job's completion — the serial
          replay point at which its answer must be reproducible. *)
  metrics : Xnav_core.Exec.metrics;
      (** The job's counters over all its attempts; the four fields
          above are copies of its rows. [shared_demand = 1] marks a
          follower; a [Completed] job with [cache_hits = 1] was answered
          at admission, while a [Recovered] job's rows include its
          serial recompute's (cache hit, disk reads and all). *)
}

type result = {
  jobs : job list;  (** In completion order. *)
  io_time : float;
  page_reads : int;
  max_concurrent : int;  (** High-water mark of simultaneously admitted queries. *)
  turns : int;  (** Scheduling turns taken. *)
  shared_jobs : int;  (** [metrics.shared_demand]: jobs that followed a leader. *)
  writer_commits : int;
  latch_waits : int;
  snapshot_retries : int;
  commit_log : update_op list;
      (** Every committed op, in commit order — replaying this serially
          on a twin store reproduces the final document. *)
  violations : string list;
      (** Invariant violations found by the end-of-run sweep (always
          checked; a non-empty list here is an engine bug). With
          [config.validate] set the sweep additionally runs
          {!Xnav_core.Exec.stream_violations} per query and raises on any
          finding. *)
  metrics : Xnav_core.Exec.metrics;
      (** The pools' measured rows summed, except [cpu_time] and
          [minor_words], the longest pool's (the pools share the
          process), and every job's other rows summed. The counter
          fields above are copies of its rows. *)
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
  pool_metrics : Xnav_core.Exec.metrics;
      (** This pool's measured deltas: the run, disk, buffer and store
          rows of {!Xnav_core.Counters.table}. *)
  pool_turns : int;  (** Turns the balancer granted this pool. *)
}

type topology_run = {
  result : result;
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
