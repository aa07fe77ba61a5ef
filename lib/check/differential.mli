(** Differential correctness harness.

    Samples random (document, location path, physical configuration)
    triples, runs every physical plan — Simple (with and without
    intermediate duplicate elimination), XSchedule, XScan (plus the
    //-scan variant when applicable), and the Multi shared-scan
    driver — and compares the result node-id multiset of each against
    the tree-walking reference evaluator {!Xnav_xpath.Eval_ref}. Each
    run also executes with {!Xnav_core.Context.config.validate} set, so
    post-run invariants (no pinned frames, no dangling I/O, balanced
    counters) are enforced on every sampled case.

    Sampling is driven by a self-contained splitmix64 generator: a given
    [seed] always reproduces the same cases, independent of the OCaml
    release. On a mismatch the harness shrinks the case toward a minimal
    failing triple and prints an [xnav check ...] reproducer command. *)

(** Storage-level layout and buffer configuration of a sampled case. *)
type physical = {
  strategy : Xnav_store.Import.strategy;
  page_size : int;
  payload : int;
  capacity : int;  (** Buffer frames; sampled down to 1. *)
  policy : Xnav_storage.Io_scheduler.policy;
  replacement : Xnav_storage.Buffer_manager.replacement;
}

(** One sampled differential test case. *)
type case = {
  doc_seed : int;  (** XMark generator seed. *)
  fidelity : float;  (** XMark fidelity (document size knob). *)
  physical : physical;
  k : int;  (** XSchedule agenda bound. *)
  speculative : bool;
  memory_budget : int;  (** Small values force the fallback path. *)
  path : Xnav_xpath.Path.t;
}

val default_physical : physical

type mismatch = { plan : string; detail : string }

val check_case : case -> mismatch list
(** Build the case's store, run every plan and compare against the
    reference evaluator. Returns one entry per disagreeing (or raising)
    plan; [[]] means the case passes. *)

val check_swizzle_case : case -> mismatch list
(** Differential check of the swizzling layer itself: build the case's
    store and run every plan twice — decode cache forced on, then forced
    off — asserting identical result node ids, identical
    [q_enqueued]/[q_served] scheduling counters, and zero cache hits in
    the unswizzled run. A non-empty result means the cache changed plan
    semantics. *)

val check_batching_case : case -> mismatch list
(** Differential check of the cost-sensitive I/O machinery: build the
    case's store and run every plan twice — coalescing, cost-sensitive
    serving and scan windows fully off (the historical single-page
    regime), then fully on — asserting identical result node ids under
    the full invariant suite, and that the knobs-off run left every
    batch/window counter at zero. *)

val check_workload_case : case -> mismatch list
(** Differential check of the concurrent workload engine: build the
    case's store, run every plan serially cold, then run them all {e at
    once} through {!Xnav_workload.Workload.run} — asserting each query's
    concurrent node set equals its serial one, that the engine reported
    one job per query with no invariant violations, and that the storage
    layer ends clean. Capacities sampled down to 1 exercise the
    serialising admission path. *)

val check_shards_case : case -> mismatch list
(** Differential check of the sharded tenancy engine: derive a small
    multi-tenant topology from the case (2–4 XMark tenants over 1–3
    shards, the case's physical configuration per shard), run every
    (tenant, plan) pair at once through
    {!Xnav_workload.Shard.run_clients} — per-shard admission, the
    two-level cost-credit scheduler with its cross-tenant fairness gate,
    scan-resistant (2Q) eviction and the result-cache front door each on
    in half the cases — and assert each job's node set equals a serial
    cold run of the same plan on the same tenant store, that placement
    matches {!Xnav_workload.Shard.stable_shard}, and that every shard's
    storage layer ends clean. *)

val check_fused_case : case -> mismatch list
(** Differential check of the fused chain automaton: build the case's
    store and run every fused-capable plan (XSchedule, XScan and its
    //-variant, XIndex at full and zero resolution) twice —
    {!Xnav_core.Context.config.fused} on, then off — asserting
    identical result node ids, the identical physical I/O trace
    (page-by-page, in order), identical scheduling and speculation
    counters, and that the knob-off run left both fused counters at
    zero. Trace equality pins the knob-off run — and therefore the
    automaton — to the historical XStep-chain I/O behaviour. *)

val check_cache_case : case -> mismatch list
(** Differential check of the result-cache front door: build the case's
    store and run every plan three times cold — cache off (the
    historical baseline), cache on against an empty cache (the miss run
    must reproduce every execution counter of the baseline exactly),
    and cache on again (the hit run must return the identical node set
    with zero I/O and zero operator work) — then run all the case's
    plans {e at once} through {!Xnav_workload.Workload.run} with the
    front door on, asserting each deduped/shared job still reports the
    serial cache-off answer and that identical concurrent statements
    were in fact shared. The process-wide cache is cleared before and
    after. *)

val check_index_case : case -> mismatch list
(** Differential check of the structural index: build the case's store
    and compare the reference evaluator, the XSchedule plan, the default
    index plan (covering whenever the path is a pure self/child chain)
    and index plans at forced partial resolutions (down to [resolve 0])
    — all under the full invariant suite. Partial resolutions exercise
    the border-continuation path: seeds enter the XStep tail mid-chain
    and residual crossings are served cluster by cluster. *)

val shrink : ?budget:int -> case -> case
(** Greedily simplify a failing case — drop path steps, lower fidelity,
    move the physical configuration and run parameters toward defaults —
    keeping each change only if the case still fails. [budget] bounds
    the number of candidate re-executions (default 120). *)

val reproducer : case -> string
(** The [xnav check ...] command line that replays exactly this case. *)

val pp_case : Format.formatter -> case -> unit

type failure = { case : case; shrunk : case; mismatches : mismatch list }

type report = { cases_run : int; plan_runs : int; failures : failure list }

val default_seed : int
(** Seed used by [dune runtest] and [xnav check] when none is given. *)

val run :
  ?seed:int ->
  ?cases:int ->
  ?paths_per_store:int ->
  ?log:(string -> unit) ->
  unit ->
  report
(** [run ()] samples and checks [cases] cases (default 200). Documents
    and stores are shared across [paths_per_store] consecutive cases
    (default 8) to keep generation cost bounded; plans always run cold.
    [log] receives progress lines and reproducers for any failures. *)

val run_swizzle :
  ?seed:int ->
  ?cases:int ->
  ?paths_per_store:int ->
  ?log:(string -> unit) ->
  unit ->
  report
(** Like {!run} but applying {!check_swizzle_case}'s swizzled/unswizzled
    comparison to every sampled case (two executions per plan). *)

val run_batching :
  ?seed:int ->
  ?cases:int ->
  ?paths_per_store:int ->
  ?log:(string -> unit) ->
  unit ->
  report
(** Like {!run} but applying {!check_batching_case}'s knobs-off/knobs-on
    comparison to every sampled case (two executions per plan). *)

val run_workload :
  ?seed:int ->
  ?cases:int ->
  ?paths_per_store:int ->
  ?log:(string -> unit) ->
  unit ->
  report
(** Like {!run} but applying {!check_workload_case}'s serial/concurrent
    comparison to every sampled case (two executions per plan: one
    serial, one through the workload engine). *)

val run_writers :
  ?seed:int ->
  ?cases:int ->
  ?paths_per_store:int ->
  ?log:(string -> unit) ->
  unit ->
  report
(** Like {!run} but mixing writer jobs into the workload: every plan of
    the case runs concurrently with one or two writer clients applying
    sampled in-place inserts and deletes through the engine's
    latch/snapshot protocol. Each reader's concurrent answer must equal
    a serial replay of the committed-op schedule up to the reader's
    finish point on an identically-imported twin store, the final
    documents must match, and the run must report zero invariant
    violations and leave the storage layer clean. Stores are built fresh
    per case (writes would leak across the batch's shared store). *)

val run_shards :
  ?seed:int ->
  ?cases:int ->
  ?paths_per_store:int ->
  ?log:(string -> unit) ->
  unit ->
  report
(** Like {!run} but applying {!check_shards_case}'s sharded/serial
    comparison to every sampled case (one sharded engine run plus one
    serial execution per (tenant, plan) pair). *)

val run_fused :
  ?seed:int ->
  ?cases:int ->
  ?paths_per_store:int ->
  ?log:(string -> unit) ->
  unit ->
  report
(** Like {!run} but applying {!check_fused_case}'s fused/unfused
    comparison to every sampled case (two executions per fused-capable
    plan). *)

val run_cache :
  ?seed:int ->
  ?cases:int ->
  ?paths_per_store:int ->
  ?log:(string -> unit) ->
  unit ->
  report
(** Like {!run} but applying {!check_cache_case}'s off/miss/hit and
    shared-workload comparison to every sampled case (four executions
    per plan plus one workload run). *)

val run_index :
  ?seed:int ->
  ?cases:int ->
  ?paths_per_store:int ->
  ?log:(string -> unit) ->
  unit ->
  report
(** Like {!run} but applying {!check_index_case}'s three-way comparison
    (reference evaluator / XSchedule / index plans at several
    resolutions) to every sampled case. *)
