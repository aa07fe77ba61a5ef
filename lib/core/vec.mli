(** Reusable growable buffers for the executor hot paths.

    The drain loops of {!Exec}, {!Multi} and {!Query_exec}
    accumulated results as cons-then-reverse lists and
    re-sorted them with [List.sort]; a [Vec] keeps one flat array per
    drain, appends in amortised O(1) without per-element allocation, and
    sorts in place exactly once at the end. [clear] keeps the storage so
    a buffer can be reused across drains. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val clear : 'a t -> unit
(** Empty the buffer, keeping its storage for reuse. *)

val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a

val top : 'a t -> 'a
(** Last pushed element. @raise Invalid_argument when empty. *)

val pop : 'a t -> 'a
(** Remove and return the last pushed element — with {!push} this makes
    a [Vec] the fused operator's work-stack. The slot is not cleared;
    popped frames die when overwritten or when the stack itself does.
    @raise Invalid_argument when empty. *)

val iter : ('a -> unit) -> 'a t -> unit
val to_array : 'a t -> 'a array
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t

val sort : ('a -> 'a -> int) -> 'a t -> unit
(** In-place sort of the live prefix. *)

val sorted_to_list : ('a -> 'a -> int) -> 'a t -> 'a list
(** [sort] then [to_list] — the single final sort of a drain. *)
