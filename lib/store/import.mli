(** Clustering import: maps a logical document tree onto disk pages.

    The paper deliberately does not prescribe a clustering (Sec. 3.3) —
    it only assumes one exists and that navigation within a cluster is
    cheap. This module provides several strategies so that the effect of
    clustering quality on the plans can be measured:

    - [Dfs]: pack nodes in document order — the natural result of a bulk
      document import, with long parent/child runs per page.
    - [Bfs]: pack level by level; siblings cluster together but parent
      and child usually end up on different pages.
    - [Scattered seed]: a seeded random permutation — models a heavily
      updated store whose time-of-creation clustering has decayed.
    - [Explicit clusters]: caller-chosen cluster id per preorder rank —
      full control for experiments that need a specific physical layout
      (e.g. the paper's Figure 1).

    Packing is greedy over the chosen order with a pessimistic per-node
    byte charge ({!Node_record.max_overhead}) that guarantees every
    cluster, with all border records it may need, fits its page. *)

type strategy = Dfs | Bfs | Scattered of int | Explicit of int array

val strategy_to_string : strategy -> string

type result = {
  root : Node_id.t;  (** Core record of the document root. *)
  first_page : int;
  page_count : int;
  node_count : int;  (** Logical (core) nodes. *)
  border_count : int;  (** Down + Up records materialised. *)
  height : int;
  partition : Path_partition.t;
      (** The path summary and structural index: per path class, the
          sorted (cluster, node) entry list, whose length is the live
          member count the cost model reads. *)
  node_ids : Node_id.t array;
      (** Preorder rank -> core NodeID, for tests and context lookup. *)
}

val run : ?strategy:strategy -> ?payload:int -> Xnav_storage.Disk.t -> Xnav_xml.Tree.t -> result
(** [run disk doc] appends the clustered representation of [doc] to
    [disk] and describes it. [payload] caps the bytes packed per cluster
    (default: the page's usable space); smaller values force more
    clusters, which tests use to exercise border handling on small
    documents. The tree is (re)indexed by the call.

    @raise Invalid_argument if even a single node exceeds the payload,
    or if an [Explicit] assignment has the wrong length or negative ids.
    @raise Failure if an [Explicit] assignment overflows a page. *)
