(** Slotted pages: variable-length records addressed by stable slot
    numbers.

    This is the classical DBMS page layout the paper's storage model
    assumes (Sec. 3.2): a record is identified by a RID = (page number,
    slot number), and the slot indirection keeps RIDs stable when records
    move within the page. Records grow upward from the header; the slot
    directory grows downward from the end of the page.

    Layout (little-endian u16 fields):
    {v
    [0..1]  slot count
    [2..3]  free-space offset (start of unused bytes)
    [4..]   record bytes ...
    ...     free space ...
    [end-4k .. end]  slot directory entries (offset, length), slot 0 last
    v} *)

type t
(** A page under modification; wraps a byte buffer of fixed size. *)

val header_size : int
val slot_entry_size : int

val create : page_size:int -> t
(** A fresh empty page. @raise Invalid_argument if [page_size < 16] or
    [page_size > 65535]. *)

val of_bytes : Bytes.t -> t
(** Interpret raw bytes (e.g. read from disk) as a page. The buffer is
    used directly, not copied. *)

val to_bytes : t -> Bytes.t
(** The underlying buffer (not a copy). *)

val page_size : t -> int
val slot_count : t -> int

val free_space : t -> int
(** Bytes available for one more record, already accounting for the slot
    directory entry the insert would need. *)

val next_slot : t -> int
(** The slot the next successful {!insert} will use. *)

val fits : t -> int -> bool
(** [fits page length]: whether {!insert} of a [length]-byte record
    would succeed (counting the space compaction would reclaim), without
    changing the page. *)

val insert : t -> string -> int option
(** [insert page record] stores [record] and returns its slot number, or
    [None] if the page lacks space. Freed slots are reused. *)

val get : t -> int -> string
(** [get page slot] is the record stored in [slot].
    @raise Invalid_argument if the slot is out of range or free. *)

val mem : t -> int -> bool
(** Whether the slot number holds a live record. *)

val record_offset : t -> int -> int
(** [record_offset page slot] is the byte offset, within {!to_bytes}, of
    the record stored in [slot] — the zero-copy counterpart of {!get} for
    codecs that parse a few fields in place (copying every record out of
    the page first was the dominant decode cost). The caller must not
    mutate the buffer.
    @raise Invalid_argument if the slot is out of range or free. *)

val record_byte : t -> int -> char
(** [record_byte page slot] is the first byte of the record in [slot],
    read in place — no copy. Record codecs put their discriminator
    there, so this answers "what kind of record?" without materialising
    the record (hot path: border scans over whole clusters).
    @raise Invalid_argument if the slot is out of range or free. *)

val delete : t -> int -> unit
(** Frees a slot. The space is reclaimed lazily by {!compact}.
    @raise Invalid_argument if the slot is out of range or already free. *)

val replace : t -> int -> string -> bool
(** [replace page slot record] overwrites the record in [slot], keeping
    its slot number. Returns [false] if the page lacks space for the new
    version (the old record is then untouched). *)

val compact : t -> unit
(** Rewrites live records contiguously, reclaiming space freed by
    {!delete} and {!replace}. Slot numbers are preserved. *)

val iter : (int -> string -> unit) -> t -> unit
(** Applies the function to every live (slot, record) pair, in slot
    order. *)

val used_bytes : t -> int
(** Total bytes consumed by live records plus directory and header. *)
