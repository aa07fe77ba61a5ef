(** Node identifiers: RIDs of node records (paper Sec. 3.2, Example 2).

    A NodeID names one record — core or border — as a (page, slot) pair.
    The cluster a node belongs to is derivable from its NodeID (paper
    Sec. 3.3): here the cluster simply {e is} the page. *)

type t = { pid : int; slot : int }

val make : pid:int -> slot:int -> t

val cluster : t -> int
(** The cluster id — the page number. Cost-driven scheduling groups and
    orders pending work by this value. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Orders by cluster first, then slot — the order XSchedule keeps its
    queue in. *)

val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Tbl : Hashtbl.S with type key = t

(** A duplicate filter: one bitmap per page, indexed by slot, with the
    last page's bitmap cached — adding an id mostly costs one bit
    operation rather than a hash-table probe. The Simple plan's per-step
    and final duplicate elimination use it. *)
module Seen : sig
  type id := t
  type t

  val create : unit -> t

  val add : t -> id -> bool
  (** [add s id] records [id]; [false] iff it was recorded before. *)
end
