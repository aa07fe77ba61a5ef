(** The clustered document store: navigation primitives over imported
    documents.

    Two navigation layers implement the paper's cost split (Sec. 3.5):

    {2 Intra-cluster cursors}

    {!start} / {!resume} enumerate an axis step {e within one pinned
    page} ({!view}). They emit [Reached] for core nodes found locally and
    [Crossing] wherever the navigation would have to traverse an
    inter-cluster edge — carrying the target border's NodeID so the
    caller (XAssembly/XSchedule) can defer and batch the I/O. A cursor
    never touches the buffer manager: while a page is pinned, navigation
    over it is pure in-memory pointer chasing — the swizzled regime the
    paper's XStep chain operates in. Only the downward axes are
    supported ({!Xnav_xml.Axis.is_downward}).

    {2 Global navigation}

    {!global_axis} enumerates any of the nine axes transparently across
    cluster borders, paying a buffer-manager lookup (and possibly a
    random synchronous page read) per record read, which it parses in
    place from the pinned page. This is the access pattern of the
    paper's Simple method and of fallback mode, and it doubles as the
    specification layer the cursors are tested against. *)

type t

val attach : Xnav_storage.Buffer_manager.t -> Import.result -> t
(** Binds an imported document to the buffer pool it will be read
    through. The store takes the import's partition over: updates
    through {!Update} keep it exact. *)

val attach_meta :
  partition:Path_partition.t ->
  Xnav_storage.Buffer_manager.t ->
  root:Node_id.t ->
  first_page:int ->
  page_count:int ->
  node_count:int ->
  height:int ->
  t
(** Rebinds a document from persisted catalog metadata (see {!Image}). *)

val buffer : t -> Xnav_storage.Buffer_manager.t
val root : t -> Node_id.t
val node_count : t -> int
val first_page : t -> int
val page_count : t -> int
val height : t -> int

val tag_counts : t -> (Xnav_xml.Tag.t * int) list
(** Live node count per tag, sorted by {!Xnav_xml.Tag.compare}, absent
    tags left out — summed from the {!partition}'s class counts, so a
    fresh import gives {!Xnav_xml.Tree.tag_counts} of its document. *)

val partition : t -> Path_partition.t
(** The path partition (summary, structural index and class counts),
    kept exact by every update: entry lists, {!class_of} and the counts
    always describe the store as it is. *)

val uid : t -> int
(** Process-unique identity assigned at attach time. Caches layered
    above the store (e.g. {!Xnav_core}'s result cache) key on it so
    entries from different stores — including a reload of the same
    image — can never alias. Because uids are a per-process counter,
    they are only unique {e within} one process lifetime: external
    caches must additionally fold {!identity} into their keys (see
    {!Xnav_core.Result_cache}). *)

val identity : t -> int
(** Deterministic content digest of the attached document — the record
    count and the full tag census (which covers the root element's tag),
    mixed at attach time without reading any page. Two attaches of the
    same document agree across processes and attach orders; documents
    with different tag populations disagree. Caches fold this next to
    {!uid} so a uid reused after a counter reset (a fresh process with a
    warm external cache, or {!reset_uids} in tests) cannot serve another
    document's answer. *)

val reset_uids : unit -> unit
(** Reset the process-wide uid counter — the next attach gets uid 1
    again. {b Test-only}: simulates a fresh process against surviving
    cache state so uid-aliasing regressions stay reproducible. Never
    call it while stores are live in caches you care about. *)

val mutation_stamp : t -> int
(** Monotonic count of structural mutations ({!note_mutation_at}) since
    attach. A cached derivation of the document (query result, decoded
    record, partition seed) is valid exactly while the stamp it was
    computed under still equals the current one. *)

val tag_count : t -> Xnav_xml.Tag.t -> int
(** Number of live nodes carrying the tag (0 if absent) — the cost-based
    plan chooser's bound for steps the summary walk does not cover. *)

val note_new_page : t -> unit
(** Registers a page appended after import (update layer only): extends
    the range XScan sweeps. *)

val note_nodes_delta : t -> int -> unit
(** Adjusts the logical node count (update layer only). *)

val note_mutation_at : t -> int -> unit
(** Registers a structural mutation of cluster [pid] (update layer
    only): bumps {!mutation_stamp}, records the per-cluster stamp
    consulted by {!page_stamp} and reports [pid] to the installed write
    log (if any). Views of other clusters keep their swizzled decodes. *)

val class_of : t -> Node_id.t -> int
(** The summary class of the live core node [id], read from the
    partition without touching a page ([-1] for any other id). *)

val page_stamp : t -> int -> int
(** [page_stamp t pid] is the {!mutation_stamp} value at cluster [pid]'s
    last mutation (0 if never mutated). A cached derivation that only
    read clusters [P] under stamp [s] is still valid iff
    [page_stamp t pid <= s] for every [pid] in [P]. *)

(** {2 Access / write observation}

    Optional observer tables for the execution layers: when a touch log
    is installed, every record access ({!read}, {!view},
    {!view_of_frame}) records the cluster it touched; when a write log
    is installed, {!note_mutation_at} records the cluster it mutated.
    The result-cache front door derives cluster footprints for cached
    entries from touch logs; writer jobs derive their invalidation set
    from write logs. Logs nest: callers swap their table in and restore
    the previous one when done. *)

type access_log = (int, unit) Hashtbl.t

val swap_touch_log : t -> access_log option -> access_log option
(** Install (or remove, with [None]) the touch log, returning the
    previously installed one. *)

val swap_write_log : t -> access_log option -> access_log option
(** Install (or remove, with [None]) the write log, returning the
    previously installed one. *)

(** {2 Views: pinned pages}

    A view carries a per-slot cache of the records {!get} decodes and
    the words {!nav} parses, so repeated navigation over a pinned page
    never re-enters the record codec. A mutation of the view's own
    cluster drops the cache; {!release} kills the view. *)

type view

val view : t -> int -> view
(** Pin page [pid] through the synchronous buffer path. *)

val view_of_frame : t -> Xnav_storage.Buffer_manager.frame -> view
(** Adopt an already pinned frame (the asynchronous path: the frame
    returned by {!Xnav_storage.Buffer_manager.await_one}). The view takes
    over the pin. *)

val release : t -> view -> unit
(** Unpin. The view and every cursor over it become invalid: any later
    record access through them raises — no swizzled handle survives its
    pin. @raise Invalid_argument if the view was already released. *)

val view_valid : view -> bool
(** Whether the view's pin is still held (false after {!release}). *)

val view_pid : view -> int

val swizzle_stats : t -> int * int
(** Cumulative [(hits, misses)] of the per-view decode caches. *)

val get : view -> int -> Node_record.t
(** Decode the record in the slot, or return the view's cached decode of
    it. @raise Invalid_argument on a free or out-of-range slot. *)

val nav : view -> int -> int
(** [nav view slot] is the record's packed navigation word
    ({!Node_record.nav_of_bytes}): kind, tag and child/sibling links in
    one unboxed int, parsed in place from the page bytes. This is the
    fused automaton's per-transition record access — it allocates
    nothing, where {!get} materialises the full record (~90 heap words).
    Cached per slot like {!get}'s decodes, sharing the swizzle counters
    and mutation invalidation. @raise Invalid_argument on a free or
    out-of-range slot. *)

val id_of : view -> int -> Node_id.t

val read_links : view -> Node_record.links -> int -> unit
(** [read_links view l slot] parses the record in [slot] into [l] where
    it lies in the page ({!Node_record.read_links}): no decode, no
    allocation, and the swizzle counters do not move. *)

val next_up : view -> int -> int
(** [next_up view slot] is the first slot at or after [slot] holding an
    [Up] border record, or [-1] when there is none — the entry points
    the speculative operators seed from. Allocates nothing. *)

val iter_records : view -> (int -> Node_record.t -> unit) -> unit
(** Decode and visit every live record of the page, in slot order (used
    by scan-based export). *)

(** {2 Intra-cluster cursors} *)

type emission =
  | Reached of int * Node_record.core
      (** A core node found without leaving the cluster: slot and record. *)
  | Crossing of int * Node_id.t
      (** An inter-cluster edge: the local [Down]'s slot and the NodeID
          of the target [Up] in the remote cluster. *)

type cursor

val start : view -> Xnav_xml.Axis.t -> int -> cursor
(** [start view axis slot] enumerates [axis] from the core node in
    [slot], intra-cluster only.
    @raise Invalid_argument if the axis is not downward or the slot does
    not hold a core record. *)

val resume : view -> Xnav_xml.Axis.t -> int -> cursor
(** [resume view axis slot] continues the enumeration of [axis] after
    crossing into this cluster at the [Up] record in [slot] (the target
    of an earlier [Crossing]).
    @raise Invalid_argument if the axis is not downward or the slot does
    not hold an [Up] record. *)

val next_emission : cursor -> emission option
(** The next emission, or [None] when the local enumeration is done. *)

(** {2 Whole-node access} *)

type info = { id : Node_id.t; tag : Xnav_xml.Tag.t; ordpath : Xnav_xml.Ordpath.t }
(** What result handling needs to know about a core node: identity, tag
    for node tests, ordpath for re-establishing document order. *)

val read : t -> Node_id.t -> Node_record.t
(** Synchronous single-record access (fix, full decode, unfix). For
    callers that need the whole record — the update layer and the
    writer path's validation probe; navigation parses only the fields
    it needs instead. The pin is released even when the slot is free or
    the record malformed. *)

val info : t -> Node_id.t -> info
(** The identity, tag and ORDPATH of a core record, parsed in place from
    the pinned page: one buffer lookup, and only the label is
    allocated. @raise Invalid_argument if the NodeID names a border
    record. *)

(** {2 Global navigation} *)

val global_axis : t -> Xnav_xml.Axis.t -> Node_id.t -> unit -> info option
(** [global_axis t axis id] is a stateful pull iterator over the full
    axis result for the core node [id], resolving border crossings
    eagerly with synchronous page fixes. Supports all nine axes, in the
    axis' natural order.

    Every record the walk reads costs exactly one [fix]/[unfix] pair
    (one buffer-manager lookup, a synchronous read on a miss) and is
    parsed in place from the pinned page: the kind byte, the slot links
    and a border's target NodeID. Only a node the iterator emits has its
    tag and ORDPATH decoded; nothing is swizzled or cached across
    accesses.
    @raise Invalid_argument if [id] names a border record (message
    ["Store.global_axis: context is a border record"], for every axis;
    raised when the iterator is created, or on its first pull for the
    [Self], [Parent] and [Ancestor*] axes), or — naming the NodeID and
    the kind expected — when a link leads to a record of the wrong kind
    (e.g. a [Down] whose target is a core). No pin is left behind. *)

val global_count : t -> Xnav_xml.Axis.t -> Node_id.t -> int
(** Drains {!global_axis} and counts. *)

val global_resume : t -> Xnav_xml.Axis.t -> Node_id.t -> unit -> info option
(** [global_resume t axis up_id] continues the enumeration of a downward
    [axis] across the border entry [up_id] (an [Up] record), resolving
    any further crossings eagerly — the border-transparent counterpart of
    {!resume}, used by fallback mode to finish work that was pending at
    the moment of the switch.
    @raise Invalid_argument if the axis is not downward or [up_id] does
    not name an [Up] record. *)
