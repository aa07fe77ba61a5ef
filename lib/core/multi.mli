(** Multi-query evaluation with a single I/O-performing operator — the
    paper's outlook (Sec. 7): "Our method can be easily extended to
    evaluate multiple location paths with a single I/O-performing
    operator."

    [run] evaluates several location paths in {e one} sequential pass
    over the document ({!Io_operator.each_cluster}). Each path is a
    lane: the step chain of {!Exec.chain} under an XAssembly, fed by
    the lane's {!Io_operator.t}. Each cluster is pinned once and loaded
    into every lane ({!Io_operator.load}: the contexts located there,
    then the lane's speculative seeds), so a lane sees exactly the
    instances a per-path XScan creates, but the physical scan is
    shared. For a workload like XMark Q7 — three separate descendant
    paths — this cuts the scan I/O by the number of paths.

    If a path's speculation store outgrows the memory budget mid-scan,
    that path alone is transparently re-evaluated with the Simple method
    afterwards (the shared scan cannot restart for one path), flagged in
    [fell_back]. *)

type result = {
  per_path : Xnav_store.Store.info list array;
      (** Result nodes per input path (duplicate-free; document order
          unless [ordered:false]). *)
  counts : int array;
  fell_back : bool array;
  metrics : Exec.metrics;
      (** Every lane's operator counters and Simple recomputations
          combined with {!Counters.add}; the times, disk, buffer and
          swizzle rows cover the whole run ({!Exec.measure}). *)
}

val run :
  ?config:Context.config ->
  ?contexts:Xnav_store.Node_id.t list ->
  ?ordered:bool ->
  cold:bool ->
  Xnav_store.Store.t ->
  Xnav_xpath.Path.t list ->
  result
(** [run ~cold store paths] evaluates all [paths] from [contexts]
    (default: the document root) in one shared scan. [cold] resets the
    buffer pool and disk clock first. [config] (default
    {!Context.default_config}) applies its swizzling and scan-resistance
    knobs through {!Exec.context}, as every Exec run does.

    @raise Invalid_argument if [paths] is empty, any path is empty, or
    any path uses a non-downward axis.
    @raise Failure if a frame is left pinned at the end. *)
