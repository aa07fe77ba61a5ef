(** The XAssembly operator (paper Sec. 5.3.3 / 5.4.5): the topmost
    operator of a reordered plan.

    XAssembly consumes the XStep chain's output and maintains the two
    main-memory structures of the method:

    - [R], the set of {e reachable right ends} [(step, node)]. It
      deduplicates inter-cluster crossings — "no inter-cluster edge is
      traversed twice for the same step" — and, at the final step, the
      result set itself. New reachable border targets are pushed to
      the I/O operator ({!Io_operator.handle}).
    - [S], the set of {e speculative} left-incomplete instances, indexed
      by their left end. Whenever a right end enters [R], matching
      speculations are discharged: a right-complete speculation at the
      final step becomes a result, a right-incomplete one propagates
      reachability to its own target — possibly cascading through [S].

    The [//] optimisation (Sec. 5.4.5.4): with [dslash] set — scan-based
    plan, path starting with [descendant-or-self::node()], context = the
    document root — membership in [R] is answered [true] for steps 0 and
    1 without storing anything, because the scan is guaranteed to reach
    every cluster and the first step reaches every node.

    Fallback (Sec. 5.4.6): when [|S|] exceeds the configured budget,
    the context flips to fallback mode, [S] is discarded, and XAssembly
    degenerates to result deduplication (pending crossings still flow to
    the queue so schedule-based plans lose nothing; scan-based plans
    restart, see {!Xscan}).

    XAssembly is not a pipeline breaker: results stream out as they are
    found, in cost-driven (not document) order. *)

val create :
  Context.t ->
  path_len:int ->
  push:(s_r:int -> Xnav_store.Node_id.t -> unit) ->
  dslash:bool ->
  (unit -> Path_instance.t option) ->
  unit ->
  Xnav_store.Store.info option
(** [create ctx ~path_len ~push ~dslash producer] is the plan's result
    iterator: full path instances' result nodes, deduplicated, in
    discovery order. Each new reachable border target [(s_r, target)]
    goes to [push] — the I/O operator's handle; XScan's ignores it, as
    its sweep reaches every cluster, while XSchedule and XIndex queue
    it, and would lose results without it. *)
