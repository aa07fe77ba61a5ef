(** What every I/O operator shares (paper Sec. 5.4): XAssembly's one
    partner, "the I/O operator", that pins clusters, turns its pending
    border targets into instances against the pinned view, and feeds
    the XStep chain.

    {!Xscan}, {!Xschedule} and {!Xindex} differ only in policy — which
    cluster to visit next and when to read it — and build on the state
    here: the producer of context nodes, the continuation queue (one
    FIFO per cluster, with its count), the agenda of instances ready
    against the current view, and that view's pin. {!Multi}'s shared
    scan sweeps the document through {!each_cluster} and loads each
    lane's clusters through {!load}. *)

type item = {
  s_l : int;
  n_l : Xnav_store.Node_id.t;
  s_r : int;
  target : Xnav_store.Node_id.t;
}
(** A continuation: visit [target]'s cluster and resume step [s_r + 1]
    at [target] (a context node when [s_r = 0], else an [Up] border). *)

type t = {
  ctx : Context.t;
  path_len : int;
  summary : Path_instance.summary option;  (** Filters {!seed}; [None] seeds every step. *)
  mutable contexts : unit -> Xnav_store.Node_id.t option;  (** The producer. *)
  mutable peeked : Xnav_store.Node_id.t option;  (** A context pulled for a later cluster. *)
  queue : (int, item Queue.t) Hashtbl.t;  (** Cluster -> continuations, FIFO. *)
  mutable pending : int;  (** Continuations queued but not yet served. *)
  agenda : Path_instance.t Queue.t;  (** Instances ready for the chain. *)
  mutable current : Xnav_store.Store.view option;  (** The pinned cluster. *)
}

val create :
  ?clusters:int ->
  Context.t ->
  path_len:int ->
  summary:Path_instance.summary option ->
  contexts:(unit -> Xnav_store.Node_id.t option) ->
  t
(** [clusters] (default 64) sizes the queue table. *)

val enqueue : t -> item -> bool
(** Queue [item] on its target's cluster; [true] when that cluster had
    nothing queued. *)

val serve : t -> int -> Xnav_store.Store.view -> int
(** [serve t pid view] moves the continuations queued on cluster [pid]
    onto the agenda, each right end swizzled into [view] ([R_core] for a
    context node, [R_entry] for an [Up] border), and returns how many.
    @raise Invalid_argument if a target is a [Down] border. *)

val load : t -> int -> Xnav_store.Store.view -> unit
(** [load t pid view]: the contexts located in cluster [pid] (the
    producer must yield them sorted by cluster id), then {!seed}.
    @raise Invalid_argument if a context arrives out of cluster order. *)

val seed : t -> Xnav_store.Store.view -> unit
(** The speculative seeds of [view] ({!Path_instance.speculate} with
    [t]'s path length and summary). *)

val pin : t -> Xnav_store.Store.view -> unit
(** Make [view] the current cluster, releasing the previous one. *)

val release : t -> unit
(** Release the current cluster's pin, if any. *)

val clear : t -> unit
(** Teardown: release the pin, drop the agenda, the queue and the
    producer; [pending] becomes 0. *)

(** {1 The sequential sweep} *)

type sweep
(** A cursor over the document's clusters in physical order. *)

val sweep : Xnav_store.Store.t -> sweep

val advance : sweep -> int option
(** The sweep's next cluster id, or [None] past the last page. *)

val each_cluster : Xnav_store.Store.t -> (int -> Xnav_store.Store.view -> unit) -> unit
(** [each_cluster store f] pins every cluster once, in physical order,
    and calls [f] on it; the pin is released even if [f] raises. *)

(** {1 The operator handle} *)

type handle = {
  visit : t;  (** [visit.pending] is zero once [next] has returned [None]. *)
  next : unit -> Path_instance.t option;  (** The chain's producer. [None] is final. *)
  push : s_r:int -> Xnav_store.Node_id.t -> unit;
      (** A border target XAssembly found reachable at step [s_r]. *)
  abandon : unit -> unit;
      (** Tear the operator down mid-run: release its pin, cancel its
          I/O and drop its queued work; [next] then returns [None].
          Called when a post-fallback pipeline cannot make progress and
          the plan restarts with the simple method. *)
  demand : unit -> int list;
      (** Clusters with queued work whose I/O is requested
          asynchronously (unordered; XSchedule only). *)
  window : unit -> (int * int) option;  (** An open scan window (XSchedule only). *)
}
(** What a plan holds of its I/O operator. *)

val handle :
  ?push:(s_r:int -> Xnav_store.Node_id.t -> unit) ->
  ?demand:(unit -> int list) ->
  ?window:(unit -> (int * int) option) ->
  t ->
  next:(unit -> Path_instance.t option) ->
  abandon:(unit -> unit) ->
  handle
(** The defaults ignore pushes, report no demand and no window. *)
