(** ORDPATH node labels (O'Neil et al., SIGMOD 2004).

    The paper (Sec. 5.5) assumes every node carries ordering information
    "such as ORDPATHs" so that document order can be re-established after
    cost-driven, out-of-order evaluation. An ORDPATH is a sequence of
    integer components; initial labels use only odd components, and
    inserts between existing siblings extend the gap with even "caret"
    components that do not count as tree levels. Labels therefore support
    arbitrary insertion without relabeling, unlike plain preorder ranks.

    Invariants maintained by this module: every label is non-empty and
    ends in an odd component. *)

type t
(** An immutable label. *)

val root : t
(** The label of a document root: the single component [1]. *)

val child : t -> int -> t
(** [child parent k] is the label of the [k]-th initial child
    ([k >= 0]) of [parent]: parent's components followed by [2k + 1]. *)

val next_sibling : t -> t
(** Label for an append after an existing node: last component + 2. *)

val prev_sibling : t -> t
(** Label for a prepend before an existing node: last component - 2
    (components may go negative, as in the original scheme). *)

val between : t -> t -> t
(** [between a b] is a fresh label strictly between [a] and [b] in
    document order. @raise Invalid_argument unless [compare a b < 0]. *)

val compare : t -> t -> int
(** Document order: lexicographic on components, with a proper prefix
    (an ancestor) ordering before its extensions (its descendants). *)

val equal : t -> t -> bool

val is_ancestor_or_self : t -> t -> bool
(** [is_ancestor_or_self a b] is true iff the node labeled [a] is [b]
    itself or an ancestor of [b]. *)

val level : t -> int
(** Tree depth encoded in the label: number of odd components minus one,
    so [level root = 0] and even carets are transparent. *)

val components : t -> int array
(** The raw components (a fresh array). Mostly for tests and printing. *)

val of_components : int array -> t
(** Inverse of {!components}. @raise Invalid_argument if empty or the
    last component is even. *)

val encode : Buffer.t -> t -> unit
(** Appends a self-delimiting binary encoding (LEB128 length + zig-zag
    varint components) to the buffer. *)

val decode : string -> int -> t * int
(** [decode s off] reads a label encoded by {!encode} at offset [off],
    returning it and the offset just past it. *)

val decode_bytes : Bytes.t -> int -> t
(** [decode_bytes bytes off] is the label {!decode} reads at [off], taken
    straight from a byte buffer (a pinned page) with no intermediate
    copies; only the label array is allocated. *)

val encoded_size : t -> int
(** Exact number of bytes {!encode} will append. *)

val pp : Format.formatter -> t -> unit
(** Dotted rendering, e.g. [1.5.2.1]. *)

val to_string : t -> string
