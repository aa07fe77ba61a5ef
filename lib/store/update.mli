(** In-place document updates on the clustered store.

    The paper's storage requirements (Sec. 1, 2) are pointed squarely at
    updatability: competing scan-friendly formats "are not easily
    updated, as they use preorder numbers to identify nodes, or require
    the nodes to be stored in a particular order". This store does
    neither — NodeIDs are physical RIDs and order lives in ORDPATH
    labels — so inserts and deletes are local record surgery:

    - a node inserted next to its siblings' page goes there if the page
      has room; otherwise a one-member run is created in an overflow
      page, linked through a fresh Down/Up border pair (this is exactly
      the "incremental updates fragment the physical layout" effect of
      Sec. 1, and the decay ablation measures what it does to each
      plan);
    - ORDPATH labels for the new node come from [Ordpath.child],
      [next_sibling] or [between] — no relabeling of existing nodes;
    - deleting the only member of a run removes the run's border pair,
      cascading if that empties further runs.

    Writes are write-through: every mutated page goes to the simulated
    disk immediately, so buffer frames and disk never diverge. Every
    mutated cluster is reported via {!Store.note_mutation_at}, which is
    what keeps swizzle and result-cache invalidation cluster-granular.

    The store's path partition stays exact: an insert adds the new node
    to the class its parent's class and tag name, a delete removes every
    removed node from its class ({!Path_partition.add},
    {!Path_partition.remove}). {!Store.node_count}, {!Store.page_count}
    and the tag census {!Store.tag_counts} follow. *)

type position =
  | First  (** As the first child. *)
  | Last  (** As the last child. *)
  | After of Node_id.t  (** Right after this existing child. *)

exception No_room_for_border of int
(** [No_room_for_border pid]: an insert that overflows to another page
    must link the new node through a Down border record in page [pid],
    where the node's sibling chain lives, and [pid] has no room for it.
    Raised before anything is written: every page, {!Store.node_count}
    and {!Store.page_count} are as they were. *)

val insert_element :
  Store.t -> parent:Node_id.t -> ?position:position -> Xnav_xml.Tag.t -> Node_id.t
(** [insert_element store ~parent tag] adds a fresh leaf element under
    [parent] (default position: [Last]) and returns its NodeID.

    @raise Invalid_argument if [parent] is a border record, or the
    [After] sibling is not a child of [parent].
    @raise No_room_for_border if the new node must go to an overflow
    page and its siblings' page cannot take the linking Down record.
    @raise Failure if no page can host the new record (the store can
    only grow while it occupies the end of the disk). *)

val insert_tree :
  Store.t -> parent:Node_id.t -> ?position:position -> Xnav_xml.Tree.t -> Node_id.t
(** Inserts a whole subtree (recursively, children in order) and returns
    the NodeID of its root. *)

val delete_subtree : Store.t -> Node_id.t -> int
(** Deletes the node and everything below it, unlinking it from its
    sibling chain and collapsing any border pairs that become empty.
    Returns the number of logical nodes removed.
    @raise Invalid_argument on a border record or the document root. *)
