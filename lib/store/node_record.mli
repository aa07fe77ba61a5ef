(** On-page node records and their binary codec.

    Three record kinds implement the paper's storage model (Sec. 3.4):

    - [Core] records represent logical document nodes. All their
      structural references (parent, first/last child, next/previous
      sibling) are {e slot numbers within the same page} — an edge never
      silently leaves the cluster.
    - [Down] border records stand, inside a sibling chain, for the
      continuation of that chain in another cluster (a {e run} of one or
      more consecutive children stored elsewhere). Their [target] is the
      NodeID of the matching [Up] record.
    - [Up] border records anchor such a run in its cluster: [first_child]
      /[last_child] delimit the run, [target] points back to the matching
      [Down], and [owner] is the NodeID of the run's logical parent's
      core record (needed for upward navigation).

    Splitting chains into runs generalises the paper's one-border-per-edge
    picture (Fig. 3) just enough that a node with more children than fit
    on one page is still representable; with one remote child per run the
    two models coincide. *)

type core = {
  tag : Xnav_xml.Tag.t;
  ordpath : Xnav_xml.Ordpath.t;
  parent : int option;  (** Slot of the parent core or anchoring [Up]. *)
  first_child : int option;  (** Slot of the first chain entry ([Core] or [Down]). *)
  last_child : int option;
  next_sibling : int option;
  prev_sibling : int option;
}

type down = {
  parent : int option;
  next_sibling : int option;
  prev_sibling : int option;
  target : Node_id.t;  (** The [Up] anchoring the remote run. *)
}

type up = {
  first_child : int option;
  last_child : int option;
  target : Node_id.t;  (** The [Down] standing for this run. *)
  owner : Node_id.t;  (** Core record of the run's logical parent. *)
  continues : bool;
      (** Whether the matching [Down] sits mid-chain (created by an
          in-place update), i.e. the sibling chain resumes after it. Bulk
          import always produces terminal [Down]s ([continues = false]),
          letting the chain walkers skip the end-of-run check. The flag
          is conservative: deletes may turn a continuing run terminal
          without clearing it. *)
}

type t = Core of core | Down of down | Up of up

val is_border : t -> bool

val target : t -> Node_id.t
(** The companion border's NodeID (paper's [target] operation).
    @raise Invalid_argument on a [Core] record. *)

val encode : t -> string
val decode : string -> t

val decode_at : Bytes.t -> int -> t
(** [decode_at bytes off] decodes the record encoded at [off] without
    copying it out first. *)

(** {2 In-place field access}

    A record read where it lies — a page buffer and the record's offset
    in it ({!Xnav_storage.Page.record_offset}) — without copying it or
    boxing anything. {!decode} is built on these, and the store's global
    navigation reads pinned pages through them. *)

type kind = Kind_core | Kind_down | Kind_up

val kind_at : Bytes.t -> int -> kind
(** @raise Invalid_argument on an unknown kind byte. *)

val kind_name : kind -> string

(** The fixed-size fields of one record. Slot links read as [-1] when
    absent; fields the record's kind lacks keep their previous value. *)
type links = {
  mutable kind : kind;
  mutable continues : bool;  (** [Up]: the run continues the chain. *)
  mutable parent : int;  (** [Core], [Down]. *)
  mutable first_child : int;  (** [Core], [Up]. *)
  mutable last_child : int;  (** [Core], [Up]. *)
  mutable next_sibling : int;  (** [Core], [Down]. *)
  mutable prev_sibling : int;  (** [Core], [Down]. *)
  mutable target_pid : int;  (** [Down], [Up]: the companion border. *)
  mutable target_slot : int;
  mutable owner_pid : int;  (** [Up]: the run's logical parent. *)
  mutable owner_slot : int;
}

val links : unit -> links
(** A fresh register set (all links [-1]). *)

val read_links : links -> Bytes.t -> int -> unit
(** [read_links l bytes off] parses the kind, slot links, border target
    and [Up] owner of the record at [off] into [l]; allocates nothing.
    @raise Invalid_argument on an unknown kind byte. *)

val tag_at : Bytes.t -> int -> Xnav_xml.Tag.t
val ordpath_at : Bytes.t -> int -> Xnav_xml.Ordpath.t
(** The tag and label of the core record at [off] (the label is the only
    allocation). @raise Invalid_argument on a border record. *)

(** {2 Packed navigation words}

    Chain walking needs only a record's kind, tag and first-child /
    next-sibling links; a full {!decode} allocates ~90 heap words per
    record (page copy, slot options, ordpath) and dominated scan CPU.
    [nav_of_bytes] parses exactly those fields in place into one unboxed
    int the fused automaton can test and follow without allocating. *)

val nav_core : int
val nav_down : int
val nav_up : int

val nav_of_bytes : Bytes.t -> int -> int
(** [nav_of_bytes bytes off] packs the record encoded at [off]. Never
    returns 0, so 0 can serve as a not-yet-parsed cache sentinel.
    @raise Invalid_argument on an unknown record kind. *)

val nav_kind : int -> int
(** {!nav_core}, {!nav_down} or {!nav_up}. *)

val nav_link1 : int -> int
(** [Core]/[Up]: first-child slot; [Down]: next-sibling slot. [-1] when
    absent. *)

val nav_link2 : int -> int
(** [Core]: next-sibling slot ([-1] when absent); [Down]: the target
    [Up]'s slot. *)

val nav_high : int -> int
(** [Core]: tag id ({!Xnav_xml.Tag.id}); [Down]: the target [Up]'s page
    id. *)

val encoded_size : t -> int
(** [encoded_size r = String.length (encode r)]. *)

val max_overhead : int
(** Safe upper bound, in bytes, of border records plus slot-directory
    entries chargeable to a single node during clustering (used by the
    import packer's pessimistic fit test). *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
