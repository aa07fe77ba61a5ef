(** The XScan operator (paper Sec. 5.4.3): the scan-based alternative to
    XSchedule.

    XScan reads every cluster of the document exactly once, in physical
    order — a pattern the simulated disk (like a real one) services at
    pure transfer cost. For each cluster it first emits the producer's
    context instances whose right end lies there (the input must be
    sorted by cluster), then {e speculates}: for every [Up] border [b]
    and every step [i], a left-incomplete instance [l_bi] with
    [S_L = S_R = i] and both ends [b]. The XStep chain extends these
    into "if [b] is reachable at step [i], then ..." facts that XAssembly
    stores in [S] and discharges once the matching right-incomplete
    instance arrives — so no cluster is ever visited twice.

    In fallback mode (Sec. 5.4.6) XScan restarts its producer and then
    acts as the identity: contexts are re-emitted unswizzled and the
    XStep chain, now border-transparent, recomputes the remaining
    results (duplicates are caught by XAssembly's result set). *)

type t

val create :
  Context.t ->
  path_len:int ->
  summary:Path_instance.summary option ->
  contexts:(unit -> (unit -> Xnav_store.Node_id.t option)) ->
  t
(** [contexts] is a replayable factory: invoked once at creation and once
    more if fallback forces a restart. Each producer must yield context
    NodeIDs sorted by cluster id ({!Xnav_store.Node_id.compare} order).
    [summary] filters the seeds ({!Path_instance.speculate}); [None]
    seeds every step. *)

val next : t -> Path_instance.t option

val clusters_scanned : t -> int

val abandon : t -> unit
(** Tear the operator down mid-run: release the current view and
    discard all buffered instances; subsequent [next] calls return
    [None]. Called by {!Exec.run} when a post-fallback pipeline cannot
    make progress and the plan restarts with the simple method. *)
