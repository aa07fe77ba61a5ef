(** Hybrid physical execution of extended queries.

    The paper's operators only evaluate predicate-free location paths;
    it positions them "as part of a more expressive algebra" (Sec. 5).
    This executor is that composition: each union branch is decomposed
    into maximal predicate-free trunk segments, every segment runs
    through the cost-chosen reordered plan (XSchedule/XScan/Simple), and
    the survivors of each segment are filtered through its trailing
    step's predicates using the border-transparent navigation primitives
    (with early exit) before becoming the next segment's context nodes.
    Union results are merged, deduplicated and put in document order. *)

type result = {
  nodes : Xnav_store.Store.info list;
  count : int;
  metrics : Exec.metrics;
      (** Every segment's counters combined with {!Counters.add}; the
          times, disk, buffer and swizzle rows cover the whole query,
          predicate checks and union merge included ({!Exec.measure}). *)
  segments : int;  (** Trunk segments executed across all branches. *)
  predicate_checks : int;  (** Candidate nodes tested against predicates. *)
}

val run :
  ?choice:Compile.choice ->
  ?config:Context.config ->
  ?contexts:Xnav_store.Node_id.t list ->
  ?ordered:bool ->
  cold:bool ->
  Xnav_store.Store.t ->
  Xnav_xpath.Query.t ->
  result
(** [run ~cold store query] evaluates [query] from [contexts] (default:
    the document root); [cold] resets the buffer pool and disk clock
    first.
    @raise Invalid_argument on an empty query.
    @raise Failure if a frame is left pinned at the end. *)

val holds : Xnav_store.Store.t -> Xnav_store.Node_id.t -> Xnav_xpath.Query.predicate -> bool
(** Predicate evaluation at one node, via global navigation with early
    exit. *)
