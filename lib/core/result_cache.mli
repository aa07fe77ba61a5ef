(** Statement + result cache: the repeat-traffic front door.

    Production path workloads are dominated by repeated statements; the
    paper's engine re-plans and re-navigates each one from scratch. This
    module memoizes the final answer of a root-context location-path
    run, keyed on the {e normalized path text} and validated against the
    store's mutation stamps. Validation is {e cluster-granular}: entries
    installed with a cluster footprint (the set of pids the run read —
    see {!add}) survive writes to other clusters and are only staled
    when a mutation touches a footprint pid
    ({!Xnav_store.Store.page_stamp}); entries without a footprint fall
    back to the store-global stamp and are staled by any mutation. This
    is sound for navigation-derived answers because any structural
    change that alters a query's answer writes at least one cluster the
    run read (splices write the anchor's cluster, deletes write every
    removed record's cluster); runs seeded from the path partition read
    no pages for their seeds, so they must be installed {e without} a
    footprint.

    The cache is process-wide and bounded: entries from different
    stores are disambiguated by {!Xnav_store.Store.uid} {e and} the
    document's content digest {!Xnav_store.Store.identity} — uids are a
    per-process counter, so a uid alone could alias two different
    documents across a uid-counter reset (a fresh process over a warm
    cache); the digest makes such a reuse a clean miss instead of a
    wrong answer. Least-recently used entries are evicted once
    {!capacity} is exceeded, and a hit is allocation-free (intrusive LRU
    relink; the cached node list is returned without copying).

    Consultation is governed by {!Context.config.result_cache} — off by
    default in the library so every historical execution path is
    byte-for-byte unchanged; the [xnav] front end and the workload/bench
    harnesses switch it on. Only root-context runs are cached: those are
    the repeated statements, and restricting the key to the path text
    keeps hits cheap. *)

type entry
(** A live cache entry. Valid until the next structural mutation of its
    store; do not retain across updates — re-{!find} instead. *)

val nodes : entry -> Xnav_store.Store.info list
(** The cached answer: distinct nodes in document order. *)

val count : entry -> int

val find : Xnav_store.Store.t -> string -> entry option
(** [find store path] looks up the answer for normalized [path] text.
    A stale entry (a mutation touched its cluster footprint — or, for
    footprint-less entries, any mutation) is dropped and reported as a
    miss — stamps only grow, so it could never become valid again. A
    valid hit moves the entry to the MRU position. *)

val add :
  ?clusters:int array ->
  Xnav_store.Store.t ->
  string ->
  count:int ->
  Xnav_store.Store.info list ->
  int
(** [add ?clusters store path ~count nodes] installs (or refreshes) the
    answer under the store's current mutation stamp and returns the
    number of LRU evictions that made room (0 or 1 in steady state; a
    no-op returning 0 when {!capacity} is 0). [nodes] must be distinct
    and in document order. [clusters], when given, is the complete set
    of pids the run read — the entry then survives writes to other
    clusters. Omit it for answers not derived purely from page reads
    (index-seeded runs). *)

val install :
  Counters.counters ->
  Xnav_store.Store.t ->
  string ->
  touched:(int, unit) Hashtbl.t ->
  Xnav_store.Store.info list ->
  unit
(** [install c store path ~touched nodes] is the fill after a miss,
    shared by {!Exec.run} and the workload engine: it sets
    [c.cache_misses] to 1, {!add}s [nodes] (distinct, document order)
    with the footprint [touched] — the touch log of the clusters the run
    read — and records the evictions in [c.cache_evictions]. A run that
    was seeded from the path partition ([c.index_entries > 0]) read no
    pages for its seeds, so its entry is installed without a footprint. *)

val stale_clusters : Xnav_store.Store.t -> int array -> int
(** [stale_clusters store touched] proactively drops this store's
    entries whose footprint intersects the [touched] pids (plus its
    footprint-less entries), returning how many were dropped (each also
    counted in [stats.stales]). Writer commits call this so
    invalidation cost is observable per update; skipping it is safe —
    {!find} performs the same check lazily. *)

val capacity : unit -> int

val set_capacity : int -> unit
(** Bound the entry count (default 256), evicting LRU entries if the
    cache currently exceeds it. [0] disables insertion entirely;
    negative values are clamped to [0]. *)

val size : unit -> int

val clear : unit -> unit
(** Drop every entry (cumulative statistics are kept; see
    {!reset_stats}). The differential harness clears between cases. *)

type stats = { hits : int; misses : int; evictions : int; stales : int }

val stats : unit -> stats
(** Cumulative since process start (or {!reset_stats}): [stales] counts
    the subset of [misses] caused by mutation-stamp invalidation. *)

val reset_stats : unit -> unit
