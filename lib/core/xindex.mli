(** The XIndex leaf operator: seeding from the path partition.

    Where XScan sweeps every cluster and XSchedule navigates from the
    root, XIndex consults the store's {!Xnav_store.Path_partition}: the
    path classes whose root-to-node tag sequence satisfies the
    [self::]/[child::] prefix of the (downward) path are exactly the
    results of that prefix ({!Xnav_xpath.Path.indexable_prefix} — a
    descendant step ends exact resolution). Two regimes follow:

    - {e Covering}: the whole path is a self/child chain. The partition
      already holds everything a result needs — NodeID, tag, ORDPATH —
      so the operator emits complete instances ([S_R = |pi|], right side
      [R_info]) straight from the entry lists with {e zero} page I/O.
      The XStep chain forwards them untouched and XAssembly merely
      deduplicates.
    - {e Residual}: resolution stops short ([resolve < |pi|]). The
      matching classes' entry lists — already sorted by (cluster, slot)
      — are visited in one ascending pass and emitted as partial
      instances with [S_L = 0] and [S_R = resolve]; the XStep tail
      evaluates the residual suffix, and border crossings come back
      through the handle's [push] (the role XSchedule's queue plays in
      a schedule plan) to be served cluster by cluster, smallest id first.
      Continuations waiting on a cluster that is also a later seed
      cluster ride along with the seed visit, so no cluster is pinned
      twice on their account.

    The entry lists are live under updates; the operator reads the
    selected classes' lists once, at {!create}, and keeps those arrays
    (an update swaps in fresh ones). *)

val create : Context.t -> path:Xnav_xpath.Path.t -> resolve:int option -> Io_operator.handle
(** [resolve] is clamped to [0 .. indexable_prefix path] ([None] = the
    full indexable prefix, i.e. covering whenever the path is a pure
    self/child chain). The handle's [push] queues a residual
    continuation on the {!Io_operator} queue; the smallest pending
    cluster is served once the seeds run out. *)
