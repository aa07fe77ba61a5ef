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

val shrink : ?budget:int -> case -> case
(** Greedily simplify a failing case — drop path steps, lower fidelity,
    move the physical configuration and run parameters toward defaults —
    keeping each change only if the case still fails. [budget] bounds
    the number of candidate re-executions (default 120). *)

val reproducer : tier:string -> case -> string
(** The [xnav check --tier TIER ...] command line that replays exactly
    this case under the named tier's check. *)

val pp_case : Format.formatter -> case -> unit

type failure = { case : case; shrunk : case; mismatches : mismatch list }

type report = { cases_run : int; failures : failure list }

val default_seed : int
(** Seed used by [dune runtest] and [xnav check] when none is given. *)

type tier = {
  name : string;
  sample : seed:int -> cases:int -> log:(string -> unit) -> report;
      (** Sample and check [cases] cases from [seed]. Documents and
          stores are shared across 8 consecutive cases to keep
          generation cost bounded; plans always run cold. [log]
          receives progress lines and, for each failing case, the
          reproducer of the case and of its shrunk form — both under
          this tier. *)
  check : case -> mismatch list;
      (** Build the case's store and run this tier's check on it; [[]]
          means the case passes. Shrinking and [xnav check --path]
          replay through it. *)
}

val tiers : tier list
(** Every differential tier, in the order [xnav check --tier all] runs
    them:
    - [base]: every physical plan plus the {!Xnav_core.Multi} shared
      scan against the reference evaluator ({!check_case}).
    - [swizzle], [batching], [fused] and [cache] are the knob-flip
      tiers, generated from {!Xnav_core.Context.knobs}: each flips the
      knobs whose row names it ([batching] flips coalescing and scan
      windows together). Every plan runs cold with the knobs off — the
      paper's operators — then on, and the pair must keep the rows'
      {!Xnav_core.Context.promise}: the same node ids, the same disk
      trace where promised, equal values in the promised
      {!Xnav_core.Counters.table} rows. The off run's guarded counters
      are held at 0 by the invariant sweep inside every run. [fused]
      runs the plans with a step chain (every plan but Simple, plus
      XIndex at full and zero resolution); the others run every plan.
    - [workload]: every plan serially cold, then all at once through
      {!Xnav_workload.Workload.run}: each concurrent node set equals its
      serial one, one job per query, no invariant violations, a clean
      storage layer. Capacities sampled down to 1 exercise the
      serialising admission path.
    - [writers]: every plan concurrently with one or two writer clients
      applying sampled inserts and deletes through the engine's
      latch/snapshot protocol. Each reader's answer equals a serial
      replay of the committed-op schedule up to its finish point on an
      identically-imported twin store, and the final documents match.
      Stores are built fresh per case. About a third of the cases add
      the wide family: an xindex reader over a root with 600-899 [b]
      children, admitted beside a writer whose first op inserts a [b],
      so the commit lands while the reader streams.
    - [shards]: a small multi-tenant topology derived from the case
      (2–4 XMark tenants over 1–3 shards; 2Q eviction and the result
      cache each on in half the cases), every (tenant, plan) pair at
      once through {!Xnav_workload.Shard.run_clients}: each job's node
      set equals a serial cold run, placement matches
      {!Xnav_workload.Shard.stable_shard}, every shard ends clean.
    - [cache]: the knob flip (cache off, then a miss), plus a third
      cold run per plan that must hit — the same node set, zero I/O and
      operator work — then all plans at once through the workload
      engine with the front door on: each shared job reports the
      cache-off answer. The process-wide cache is cleared before and
      after.
    - [index]: the reference evaluator, XSchedule, the default index
      plan and index plans at forced partial resolutions (down to
      [resolve 0]) under the full invariant suite. *)

val find_tier : string -> tier option
(** The tier of {!tiers} with this name. *)
