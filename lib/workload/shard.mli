(** Sharded multi-document tenancy: K independent storage stacks under
    the {!Workload} engine.

    A shard manager owns [K] disk/scheduler/buffer stacks ({e shards}),
    places each {e tenant} document on a shard by a stable hash of its
    name ({!stable_shard} — placement survives process restarts and
    tenant-list reorderings), and runs client jobs through
    {!Workload.run_topology} with one pool per shard and one site per
    tenant. Scheduling is the engine's, in two levels (see {!Workload}):
    lanes rotate within a shard with the cost-credit quantum, random-I/O
    yield and cheap-demand boost, and the global balancer picks the
    shard under the cross-tenant fairness gate (overrides counted in
    {!type-result.rebalance_moves}), so a co-located tenant running
    scans can delay a neighbour by at most one gate window. This module
    adds placement, input checks and per-tenant / per-shard statistics.

    Shards are fully independent: separate simulated disks (and clocks),
    separate buffer pools, separate I/O schedulers. All latencies are
    measured on the {e owning shard's} clock, so per-tenant percentiles
    are deterministic and CI-stable. Combined with the scan-resistant 2Q
    pool policy ({!Xnav_core.Context.config.scan_resistant}, applied to
    each shard's pool at stream preparation), a tenant's sequential
    scans recycle their own probationary pages instead of flushing a
    co-located tenant's hot set.

    Jobs are {e read-only}: writer specs are rejected up front — online
    updates go through {!Workload.run_clients} on the owning tenant's
    store, because cluster latches are keyed by page id and the commit
    log is kept per store. The repeat-traffic front door works as on a
    single pool, per tenant: result-cache entries key on the tenant
    store's uid and content digest, and a job follows an in-flight
    leader only on the same tenant store with the same path text, so
    co-located tenants never serve each other's answers or share each
    other's scans. *)

type t
(** A shard topology: K storage stacks with tenant documents placed on
    them. Create once, run many workloads against it. *)

val stable_shard : shards:int -> string -> int
(** [stable_shard ~shards name] is the shard (in [0 .. shards-1]) that
    tenant [name] maps to: FNV-1a over the name's bytes, reduced mod
    [shards]. Pure and process-independent — the placement function is
    part of the format, exposed for tests and capacity planning.
    @raise Invalid_argument if [shards < 1]. *)

val create :
  ?capacity:int ->
  ?policy:Xnav_storage.Io_scheduler.policy ->
  ?replacement:Xnav_storage.Buffer_manager.replacement ->
  ?strategy:Xnav_store.Import.strategy ->
  ?page_size:int ->
  ?payload:int ->
  shards:int ->
  (string * Xnav_xml.Tree.t) list ->
  t
(** [create ~shards tenants] builds [shards] independent
    disk/scheduler/buffer stacks (each pool of [capacity] frames,
    default 1000, scheduler [policy] default [Elevator], victim
    selection [replacement] default [Lru]) and imports each named tenant
    document onto its {!stable_shard} with [strategy] (default [Dfs]);
    [page_size] and [payload] are the disk page size and per-cluster
    byte cap, defaulting as {!Xnav_storage.Disk.default_config} and
    {!Xnav_store.Import.run} do. Documents hashing to the same shard
    share that shard's disk (imports append) and compete for its pool.
    @raise Invalid_argument if [shards < 1], [tenants] is empty, or a
    tenant name repeats. *)

val shard_count : t -> int
val tenant_count : t -> int

val shard_of : t -> string -> int
(** The shard holding this tenant.
    @raise Invalid_argument on an unknown tenant. *)

val store : t -> string -> Xnav_store.Store.t
(** The tenant's attached store — for direct (serial) runs against the
    same physical placement, e.g. the differential tier's per-tenant
    replay. @raise Invalid_argument on an unknown tenant. *)

type tjob = { tenant : string; spec : Workload.spec }
(** One client job: a read spec addressed to a tenant. [spec.ops] must
    be empty. *)

type tenant_stat = {
  tenant : string;
  shard : int;
  jobs : int;
  p50 : float;  (** Median job latency, simulated seconds (shard clock). *)
  p99 : float;  (** Tail job latency — the per-tenant gate the bench enforces. *)
  served_ticks : int;
  starved_ticks : int;
  cache_hits : int;
}

type shard_stat = {
  shard : int;
  tenants : int;  (** Tenant documents placed on this shard. *)
  page_reads : int;
  io_time : float;  (** Simulated seconds this shard's disk spent. *)
  turns : int;  (** Engine turns the balancer granted this shard. *)
  scan_resist_hits : int;
      (** Protected-queue hits in this shard's pool (0 with 2Q off). *)
}

type result = {
  jobs : (string * Workload.job) list;
      (** (tenant, job) in completion order. Writer fields are 0. *)
  tenant_stats : tenant_stat list;  (** One per tenant, creation order. *)
  shard_stats : shard_stat list;  (** One per shard, id order. *)
  turns : int;  (** Global balancer turns. *)
  rebalance_moves : int;
      (** Turns the cross-tenant fairness gate overrode the balancer's
          round-robin pick. *)
  max_concurrent : int;  (** High-water mark of admitted lanes, all shards. *)
  cpu_time : float;
  io_time : float;  (** Sum of the shards' simulated disk time. *)
  page_reads : int;  (** Sum over shards. *)
  cache_hits : int;  (** Jobs answered from the result cache at admission. *)
  violations : string list;
      (** Per-shard invariant sweep findings (prefixed with the shard
          id); non-empty means an engine bug. *)
}

val run_clients :
  ?config:Xnav_core.Context.config ->
  ?quantum:float ->
  ?ordered:bool ->
  cold:bool ->
  t ->
  tjob list array ->
  result
(** [run_clients t clients] runs one closed-loop client per array entry
    (as {!Workload.run_clients}): each client submits its next job the
    moment the previous finishes; jobs queue at their tenant's shard and
    are admitted under the per-shard pin-demand bound of the
    {!Workload} engine ([2 (n + 1) <= capacity], alone always
    admissible). [quantum] is the per-turn cost credit in simulated
    seconds (default [0.004]); [cold] resets every shard's pool and disk
    clock first.
    @raise Invalid_argument on an empty client array, an unknown tenant,
    a writer spec, or a read spec {!Xnav_core.Exec.plan_error} rejects —
    all before any job runs.
    @raise Failure if any shard's frames are left pinned, or (with
    [config.validate]) on an invariant violation. *)
