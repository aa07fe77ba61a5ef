(** Plan compilation, including the cost model the paper leaves as
    future work ("a cost model to support the choice of the
    I/O-performing operator", Sec. 7).

    The model estimates, from the store's statistics (node count, page
    count, the path summary's class counts) and the disk's cost
    parameters:

    - [cost_scan]: one sequential pass over all pages plus the CPU spent
      generating and maintaining speculative instances (proportional to
      nodes x steps);
    - [cost_schedule]: the touched nodes' proportional share of the
      document's pages fetched at (scheduler-discounted) random-access
      cost;
    - [cost_simple]: the same page share fetched at full random cost,
      once per step that reaches it (no batching, no reordering).

    Touched-node counts are the exact per-step result sizes of
    {!Xnav_store.Path_partition.step_counts}, read from the live class
    counts that updates keep current; a path the summary walk does not
    cover (non-downward, or too long) falls back to a crude per-tag
    upper bound. The model separates the regimes the paper's evaluation
    exhibits: low-selectivity paths (Q7) go to XScan, selective paths
    (Q15) to the structural index — [cost_index] being the fourth term,
    computed exactly from the partition's entry lists. *)

type choice = Auto | Force_simple | Force_schedule | Force_scan | Force_index

type estimate = {
  touched_nodes : int;
      (** Nodes enumerated by the steps (at least 1): exact from the
          summary, a per-tag upper bound where its walk does not
          apply. *)
  est_pages : int;  (** Estimated distinct clusters a schedule plan loads. *)
  fused : bool;
      (** Whether the reordered-shape CPU terms assume the fused
          automaton's reduced per-node cost (the default) or the
          per-step iterator chain's. *)
  cost_simple : float;
  cost_schedule : float;
  cost_scan : float;
  cost_index : float;
      (** Covering paths (pure self/child chains the summary resolves
          exactly) cost only per-entry CPU — the partition carries id,
          tag and ordpath, so no page is read. Paths with a residual
          suffix pay an exact seed-cluster walk (consecutive clusters at
          transfer cost, gaps at random cost) plus tail navigation: when
          the summary shows the seed prefix prunes the tail to a
          minority of the document, the tail's page share is priced at
          near-sequential transfer cost (the residual operator serves
          pending clusters smallest-pid-first over contiguous seed
          subtrees), so [Auto] can pick residual seeding for q6'-style
          queries; otherwise the term keeps its conservative
          [>= cost_schedule] price. [infinity] for an empty path or
          one the summary walk does not cover (a non-downward step). *)
}

val estimate : ?fused:bool -> Xnav_store.Store.t -> Xnav_xpath.Path.t -> estimate
(** [fused] (default [true]) selects which per-node CPU constant the
    reordered-shape terms charge. *)

val compile :
  ?choice:choice ->
  ?context_is_root:bool ->
  Xnav_store.Store.t ->
  Xnav_xpath.Path.t ->
  Plan.t
(** [compile store path] picks a plan. Paths with non-downward axes
    always compile to the Simple method (the physical cursors cover the
    downward axes; see {!Xnav_xml.Axis.is_downward}). [context_is_root]
    (default [true]) enables the [//] optimisation on scan plans.

    [Auto] only considers the index plan when [context_is_root] — the
    partition's classes are anchored at the document root. The
    partition is live, so index plans stay available after updates.

    @raise Invalid_argument if [Force_schedule]/[Force_scan]/[Force_index]
    is requested for a non-downward path. *)

val plan_for :
  ?choice:choice ->
  ?rewrite:bool ->
  ?context_is_root:bool ->
  Xnav_store.Store.t ->
  Xnav_xpath.Path.t ->
  Xnav_xpath.Path.t * Plan.t
(** Like {!compile}, optionally running the logical normaliser
    ({!Xnav_xpath.Rewrite.normalize}) first — requirement 4 of the paper:
    physical reordering composes with orthogonal logical optimisation.
    Returns the (possibly rewritten) path together with its plan; execute
    that path, not the original. *)

val pp_estimate : Format.formatter -> estimate -> unit
