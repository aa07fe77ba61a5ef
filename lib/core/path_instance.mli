(** Partial path instances — the first-class citizens of the physical
    algebra (paper Sec. 4).

    A partial path instance represents a consecutive fragment of a
    potential path match. Following Sec. 4.4, only the four values
    [(S_L, N_L, S_R, N_R)] are materialised; the inner nodes of the
    fragment are never needed by the operators.

    The right end exists in three physical states, implementing the
    swizzling discipline of Sec. 5.3.2.3:
    - [R_core]: a swizzled core node in the cluster currently pinned by
      the I/O operator — this is how instances travel {e down} the XStep
      chain (direct pointers, no buffer lookups).
    - [R_entry]: a swizzled [Up] border in the current cluster — a
      continuation entry the next applicable XStep resumes from.
    - [R_pending]: an unswizzled NodeID of a remote [Up] border — an
      inter-cluster edge that was {e not} traversed; the instance is
      right-incomplete and waits for I/O (paper: the XStep "returns an
      output partial path instance [with] the border node as its right
      end").
    - [R_info]: an unswizzled core node, used by fallback mode where
      navigation is border-transparent and no cluster pin exists.

    The left end is always unswizzled: it only feeds the main-memory
    bookkeeping sets [R], [S] and [Q] of XAssembly/XSchedule. *)

type right_node =
  | R_core of { view : Xnav_store.Store.view; slot : int; core : Xnav_store.Node_record.core }
  | R_entry of { view : Xnav_store.Store.view; slot : int }
  | R_pending of Xnav_store.Node_id.t
  | R_info of Xnav_store.Store.info

type t = {
  s_l : int;  (** [S_L]: step number of the left end. *)
  n_l : Xnav_store.Node_id.t;  (** [N_L]: left-end node (context or border). *)
  left_incomplete : bool;
      (** Whether [N_L] is an untraversed border ([p] speculative) rather
          than a context node. *)
  s_r : int;  (** [S_R]: last fully evaluated step (paper's offset rule). *)
  n_r : right_node;  (** [N_R]: right-end node. *)
}

val context : Xnav_store.Store.view -> Xnav_store.Node_id.t -> t
(** The instance a context node [x] of the pinned cluster [view] enters
    the pipeline as: [S_L = S_R = 0], [N_L = N_R = x] (paper Sec. 5.1),
    with the right end swizzled into [view].
    @raise Invalid_argument if [x] is a border record. *)

type summary
(** A statement's seeding filter for {!Plan.Summary}. A seed at [Up]
    border [u] for step [i] is discharged only when a crossing into [u]
    at step [i] happens, and that needs a node matching the path's first
    [i] steps exactly at [u]'s owner (step [i + 1] on [child]) or at an
    ancestor-or-self of it ([descendant], [descendant-or-self]); a
    [self] step never crosses. The owner's path class decides this
    exactly, so the filter keeps every seed that could complete and
    drops only dead ones: ids, page reads and the I/O trace are those of
    [All] seeding. Masks are computed lazily, at most once per class. *)

val summary : Xnav_store.Store.t -> Xnav_xpath.Path.t -> summary option
(** [summary store path] is the filter for evaluating [path] from the
    document root, or [None] when the path has 62 steps or more (a step
    mask is one int). *)

val speculate :
  Context.t -> path_len:int -> ?summary:summary -> Xnav_store.Store.view -> t Queue.t -> unit
(** The speculative seeding of a loaded cluster (paper Sec. 5.4): for
    every [Up] border [b] of [view] and every step [i < path_len], add
    the left-incomplete instance with [S_L = S_R = i] and both ends [b]
    to the queue, counting each in [specs_created]. With [summary], only
    the steps its filter proves feasible for [b]'s owner are seeded —
    the owner is read in place from the page, its class from the live
    partition, so the filter holds after updates. An owner whose class
    is newer than the filter's masks seeds every step. XScan,
    XSchedule's speculative mode and {!Multi}'s shared scan all seed
    through it. *)

val right_incomplete : t -> bool
(** True iff the right end is an untraversed border. *)

val full : path_len:int -> t -> bool
(** Complete on both sides with [S_R = |pi|] (paper Sec. 4.3). *)

val right_id : t -> Xnav_store.Node_id.t
(** The NodeID of the right end (unswizzling it if needed). *)

val pp : Format.formatter -> t -> unit
