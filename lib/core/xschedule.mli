(** The XSchedule operator (paper Sec. 5.3.4 / 5.4.4): the single
    I/O-performing operator of a schedule-based plan.

    XSchedule keeps a queue [Q] of unprocessed partial path instances —
    context nodes from its producer plus right-incomplete instances that
    XAssembly forwards through {!push}. Cluster accesses are submitted to
    the asynchronous I/O layer as soon as the instances enter [Q]; the
    operator serves whichever cluster the layer completes first, keeping
    it pinned (the {e current cluster}) while downstream XSteps navigate
    it. The producer is drained lazily so that at least [k] right ends
    are queued, giving the I/O layer scheduling alternatives.

    With [speculative] set (Sec. 5.4.4), every newly visited cluster also
    yields left-incomplete instances for each of its [Up] borders and
    each step — and {!push} drops requests whose target cluster was
    already visited, because the speculation subsumes them. Without it,
    such requests re-visit the cluster (the revisit cost speculation
    exists to avoid).

    Termination: [Q] empty and the producer exhausted. XAssembly only
    pushes in direct response to instances this operator emitted, so a
    [None] from a schedule-based plan is final. *)

type t

val create :
  Context.t ->
  speculative:bool ->
  path_len:int ->
  summary:Path_instance.summary option ->
  contexts:(unit -> Xnav_store.Node_id.t option) ->
  t
(** [speculative] is the plan's flag. [contexts] produces the context NodeIDs (the paper's non-full,
    complete instances with [S_L = S_R = 0]). [summary] filters the
    speculative seeds ({!Path_instance.speculate}); [None] seeds every
    step. Dropping a continuation into a visited cluster ({!push}) stays
    sound under the filter: the crossing that produced the continuation
    proves its seed feasible, so the seed was kept. *)

val push :
  t ->
  s_l:int ->
  n_l:Xnav_store.Node_id.t ->
  s_r:int ->
  target:Xnav_store.Node_id.t ->
  unit
(** Queue a continuation: visit [target]'s cluster and resume step
    [s_r + 1] at the [Up] border [target]. Called by XAssembly. *)

val next : t -> Path_instance.t option
(** The iterator [next] method. *)

val queue_size : t -> int
(** |Q|: items queued but not yet served. Zero once [next] has returned
    [None]. *)

val refused_count : t -> int
(** Clusters whose prefetch the buffer refused (every frame pinned) and
    that await a retry by the dispatch loop. Zero once [next] has
    returned [None]. *)

val queued_clusters : t -> int list
(** The clusters with queued items (unordered). The workload scheduler
    uses this as the query's {e demand set}: a queued cluster that is
    already resident, inside another query's scan window, or adjacent to
    other pending requests makes this query worth serving next. *)

val scan_window : t -> (int * int) option
(** The active adaptive scan window as [(next, hi)] inclusive page
    bounds, or [None] when no window is open. *)

val abandon : t -> unit
(** Tear the operator down mid-run: release the current cluster pin,
    cancel outstanding prefetches and discard all queued work (counted
    in {!Context.counters.q_dropped}). Called by {!Exec.run} when a
    post-fallback pipeline cannot make progress (the global
    re-navigation needs a buffer frame but this operator pins the
    current cluster) and the plan restarts with the simple method. *)
