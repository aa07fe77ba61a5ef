(** Path partition: the structural index over a clustered store.

    Following Arion et al. ({e Path Summaries and Path Partitioning in
    Modern XML Databases}), every node is assigned a {e path class} —
    the deduplicated root-to-node tag sequence, interned in a
    path-summary trie during the {!Doc_stats} import pass — and the
    partition materialises, per class, the list of {!Node_id.t}s sorted
    by (cluster, slot), each paired with the node's ORDPATH label. The
    partition is therefore {e covering} for structure-only queries: a
    downward path the summary resolves exactly (a [self::]/[child::]
    prefix) is answered straight from the entry lists — id, tag (the
    class sequence's last element) and ordpath — with no page I/O at
    all, while partially resolved paths seed navigation from the entry
    clusters (the {!Xnav_core} XIndex leaf operator). *)

type t

val build :
  classes:Xnav_xml.Tag.t array array ->
  class_of:int array ->
  node_ids:Node_id.t array ->
  ordpaths:Xnav_xml.Ordpath.t array ->
  t
(** [build ~classes ~class_of ~node_ids ~ordpaths] assembles the
    partition from {!Doc_stats.collect_full}'s summary ([classes], plus
    [class_of] per preorder rank) and the import's preorder-indexed
    [node_ids] / [ordpaths]. Raises [Invalid_argument] if the per-node
    arrays disagree in length. *)

val class_count : t -> int

val class_sequence : t -> int -> Xnav_xml.Tag.t array
(** Root-first tag sequence of a class (the node's own tag last). *)

val class_tag : t -> int -> Xnav_xml.Tag.t
(** The class members' own tag — the sequence's last element. *)

val class_entries : t -> int -> Node_id.t array
(** Entry list of a class, sorted by {!Node_id.compare} — the order the
    XIndex operator visits clusters in. *)

val class_labels : t -> int -> Xnav_xml.Ordpath.t array
(** ORDPATH labels aligned with {!class_entries} — what makes the
    partition covering: fully resolved paths emit results from here
    without touching a page. *)

val node_count : t -> int
(** Total entries across all classes (= document node count). *)

val class_at : t -> pid:int -> slot:int -> int
(** [class_at t ~pid ~slot] is the class whose entry list holds the
    NodeID [(pid, slot)], or [-1] when no entry has that id. The lookup
    (one int array per page) is built on the first call, not at import
    or load, and answers without allocating. *)

val select : t -> matches:(Xnav_xml.Tag.t array -> bool) -> int list
(** Class ids whose sequence satisfies [matches], ascending. The
    matcher is typically {!Xnav_xpath.Path.matches_sequence} partially
    applied to a downward path prefix. *)

val equal : t -> t -> bool

(** {2 Persistence} (used by {!Image}) *)

val encode : Buffer.t -> t -> unit
val decode : string -> int -> t * int
