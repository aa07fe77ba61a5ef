(** The XSchedule operator (paper Sec. 5.3.4 / 5.4.4): the single
    I/O-performing operator of a schedule-based plan.

    XSchedule keeps a queue [Q] of unprocessed partial path instances —
    context nodes from its producer plus right-incomplete instances that
    XAssembly forwards through the handle's [push], kept in the
    {!Io_operator} queue. Cluster accesses are submitted to
    the asynchronous I/O layer as soon as the instances enter [Q]; the
    operator serves whichever cluster the layer completes first, keeping
    it pinned (the {e current cluster}) while downstream XSteps navigate
    it. The producer is drained lazily so that at least [k] right ends
    are queued, giving the I/O layer scheduling alternatives.

    With [speculative] set (Sec. 5.4.4), every newly visited cluster also
    yields left-incomplete instances for each of its [Up] borders and
    each step — and [push] drops requests whose target cluster was
    already visited, because the speculation subsumes them. Without it,
    such requests re-visit the cluster (the revisit cost speculation
    exists to avoid).

    Termination: [Q] empty and the producer exhausted. XAssembly only
    pushes in direct response to instances this operator emitted, so a
    [None] from a schedule-based plan is final. *)

val create :
  Context.t ->
  speculative:bool ->
  path_len:int ->
  summary:Path_instance.summary option ->
  contexts:(unit -> Xnav_store.Node_id.t option) ->
  Io_operator.handle
(** [speculative] is the plan's flag. [contexts] produces the context
    NodeIDs (the paper's non-full, complete instances with
    [S_L = S_R = 0]). [summary] filters the speculative seeds
    ({!Path_instance.speculate}); [None] seeds every step. Dropping a
    continuation into a visited cluster (the handle's [push]) stays
    sound under the filter: the crossing that produced the continuation
    proves its seed feasible, so the seed was kept.

    The handle's [push] queues a continuation on its cluster and
    requests that cluster's I/O; its [demand] lists the clusters with
    queued items (unordered), which the workload scheduler treats as the
    query's {e demand set}: a queued cluster that is already resident,
    inside another query's scan window, or adjacent to other pending
    requests makes this query worth serving next. Its [window] is the
    active adaptive scan window as [(next, hi)] inclusive page bounds.
    Its [abandon] also cancels outstanding prefetches and counts the
    dropped items in {!Context.counters.q_dropped}. *)
