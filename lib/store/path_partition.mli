(** Path partition: the structural index and cardinality statistics of a
    clustered store.

    Following Arion et al. ({e Path Summaries and Path Partitioning in
    Modern XML Databases}), every node is assigned a {e path class} —
    the deduplicated root-to-node tag sequence, interned in a
    path-summary trie while the import builds the partition — and the
    partition materialises, per class, the list of {!Node_id.t}s sorted
    by (cluster, slot), each paired with the node's ORDPATH label. The
    partition is therefore {e covering} for structure-only queries: a
    downward path the summary resolves exactly (a [self::]/[child::]
    prefix) is answered straight from the entry lists — id, tag (the
    class sequence's last element) and ordpath — with no page I/O at
    all, while partially resolved paths seed navigation from the entry
    clusters (the {!Xnav_core} XIndex leaf operator).

    The partition stays exact under {!Update}: an insert {!add}s the new
    node to its class's entry list and a delete {!remove}s every removed
    node, so a class's member count is always its entry list's length. A
    node inserted under a tag sequence the import never saw gets an
    {e appended} class, with entries like any other. The summary is also
    the cost model's only source of cardinalities: {!step_counts} turns
    the live counts into the exact size of every step's result. *)

type t

val build :
  Xnav_xml.Tree.t -> node_ids:Node_id.t array -> ordpaths:Xnav_xml.Ordpath.t array -> t
(** Interns the summary of the indexed [doc] (class ids in order of first
    occurrence in preorder, so a parent class precedes its children) and
    assembles the entry lists from the import's preorder-indexed arrays.
    Raises [Invalid_argument] if those disagree in length. *)

val make :
  sequences:Xnav_xml.Tag.t array array ->
  entries:Node_id.t array array ->
  labels:Xnav_xml.Ordpath.t array array ->
  t
(** Rebuilds a partition from {!class_sequence}, {!class_entries} and
    {!class_labels} of every class (used by {!Image}). Raises
    [Invalid_argument] unless each sequence is new, follows its parent's
    and has as many entries as labels. *)

val class_count : t -> int
(** Classes in the summary, appended ones included. *)

val class_sequence : t -> int -> Xnav_xml.Tag.t array
(** Root-first tag sequence of a class (the node's own tag last). *)

val class_tag : t -> int -> Xnav_xml.Tag.t
(** The class members' own tag — the sequence's last element. *)

val class_parent : t -> int -> int
(** The class of the members' parents; [-1] for the root's class. *)

val class_entries : t -> int -> Node_id.t array
(** Entry list of a class, sorted by {!Node_id.compare} — the order the
    XIndex operator visits clusters in. Updates never edit a returned
    array: {!add} and {!remove} swap in a fresh one, so a reader keeps
    the list it read. *)

val class_labels : t -> int -> Xnav_xml.Ordpath.t array
(** ORDPATH labels aligned with {!class_entries} — what makes the
    partition covering: fully resolved paths emit results from here
    without touching a page. *)

val child : t -> int -> Xnav_xml.Tag.t -> int
(** [child t c tag] is the class of a [tag] child of a class-[c] node
    ([c = -1]: the root's class), appending it when the summary lacks
    it. *)

val intern : t -> Xnav_xml.Tag.t array -> int
(** The class of a root-first tag sequence, appending the classes the
    summary lacks. *)

val add : t -> int -> Node_id.t -> Xnav_xml.Ordpath.t -> unit
(** [add t c id label] enters the node [id], labelled [label], into
    class [c]: its entry list stays sorted and {!class_at} maps [id] to
    [c] (update layer only). *)

val remove : t -> int -> Node_id.t -> unit
(** [remove t c id] drops [id] from class [c]'s entry list, and
    {!class_at} maps [id] to [-1] (update layer only).
    @raise Invalid_argument if [id] is no entry of [c]. *)

val max_steps : int
(** Longest path {!walk} accepts. *)

val walk : t -> Xnav_xpath.Path.t -> select:int -> int array * int list
(** [walk t path ~select] evaluates [path] from the document root in one
    pass over the classes: [counts.(i)] is the exact number of distinct
    nodes the first [i + 1] steps select, from the live entry counts;
    [classes] (ascending) are those whose nodes the first [select] steps
    select. Steps on a non-downward axis select nothing here.
    @raise Invalid_argument for paths longer than {!max_steps}. *)

val step_counts : t -> Xnav_xpath.Path.t -> int array
(** The [counts] of {!walk}. *)

val seed_masks : t -> Xnav_xpath.Path.t -> int array
(** From the same pass as {!walk}: per class [c], bit [s] is set iff a
    seed at step [s] can serve an [Up] owned by a class-[c] node — the
    first [s] steps select the owner and step [s + 1] is [child], or they
    select an ancestor-or-self of it and step [s + 1] is [descendant] or
    [descendant-or-self]. @raise Invalid_argument as {!walk}. *)

val class_at : t -> pid:int -> slot:int -> int
(** [class_at t ~pid ~slot] is the class whose entry list holds the
    NodeID [(pid, slot)], or [-1] when no entry has that id. The lookup
    (one int array per page) is built on the first call, not at import
    or load, then kept current by {!add} and {!remove}; it answers
    without allocating. *)

val equal : t -> t -> bool
(** Same classes in the same order, same entry lists and labels. *)
