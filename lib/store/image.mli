(** Disk-image persistence: one file holds the simulated disk's pages
    plus a catalog of the documents stored on it, so a clustered store
    survives process restarts (the CLI's [import] / [--image] flow).

    Format (little-endian, versioned):
    {v
    "XNAVIMG3"                magic
    disk config               page_size u32, six cost floats
    page count u32, pages     raw page bytes
    catalog count u32         per document: root (pid,slot), first page,
                              page count, node count, height, then the
                              path partition: class count, per class
                              its tag sequence and entries (pid, slot,
                              ORDPATH label)
    v}

    The partition is live under updates, so a mutated store saves and
    loads like a fresh one.

    Buffer state is deliberately not persisted — a loaded image starts
    with a cold cache, matching the benchmark regime. *)

exception Corrupt of string
(** Raised by {!load} on bad magic (an older format version included),
    truncation, or a malformed partition. *)

val save : string -> Store.t list -> unit
(** [save path stores] writes the shared disk of [stores] and their
    catalog to [path].
    @raise Invalid_argument if [stores] is empty or they do not share
    one disk. *)

val load :
  ?capacity:int -> ?policy:Xnav_storage.Io_scheduler.policy -> string -> Store.t list
(** [load path] recreates the disk, one buffer pool (default 1000
    frames, elevator policy) and every catalogued store, in the order
    they were saved. *)
