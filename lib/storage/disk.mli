(** A simulated disk with an explicit access-cost model.

    The paper's experiments ran on a real drive behind Linux [O_DIRECT];
    what matters for reproducing them is not absolute latency but the
    *relative* cost of the access patterns the plans generate: random
    page fetches pay a distance-dependent seek plus rotational latency,
    sequential fetches pay only transfer time, and a re-read of the
    current head position pays transfer only. This module charges those
    costs against a deterministic simulated clock, making every benchmark
    figure exactly reproducible.

    The head position, clock and per-pattern counters are observable, so
    the motivation example (page access order, Sec. 1) and the I/O
    scheduler ablations can be measured directly.

    {b Buffer ownership.} The disk's own page buffers never escape:
    {!read} and {!read_batch} hand out copies, and {!write} copies in.
    A returned copy belongs to the caller until it hands it back with
    {!recycle}; the disk keeps such buffers on a spare list and fills
    one on the next read instead of allocating. A page-size buffer is
    too large for OCaml's minor heap, so without recycling every read
    would put a fresh page into the major heap. After [recycle disk b]
    the caller must neither read nor write [b] again: the next read
    overwrites it. The cost model does not see the spare list. *)

type config = {
  page_size : int;  (** Bytes per page. *)
  seek_base : float;  (** Fixed seek overhead, seconds. *)
  seek_factor : float;
      (** Distance term: the seek to a page [d] pages away costs
          [seek_base +. seek_factor *. sqrt d], capped at [seek_max].
          The square root mimics the saturating seek curve of real
          drives. *)
  seek_max : float;  (** Full-stroke seek bound, seconds. *)
  rotational : float;  (** Average rotational latency, seconds. *)
  transfer : float;  (** Per-page transfer time, seconds. *)
  async_overhead : float;
      (** Dispatch cost charged per asynchronously serviced request
          (queue handoff, interrupt, missed read-ahead window). It is
          what keeps a perfectly sorted stream of single-page async
          requests from being as cheap as one streaming scan — the gap
          the paper observes between XSchedule and XScan on
          low-selectivity queries. *)
}

val default_config : config
(** An 8 KiB-page drive of the paper's era (2005, 7200 rpm): ~8 ms
    full-stroke seek, 3 ms average rotational latency, ~0.13 ms
    transfer. Random reads are roughly 50x a sequential read. *)

type stats = {
  reads : int;
  writes : int;
  sequential_reads : int;  (** Reads satisfied at head or head+1. *)
  random_reads : int;
  seek_distance : int;  (** Sum of page distances over random reads. *)
  batched_reads : int;  (** {!read_batch} calls (vectored I/Os issued). *)
  batch_pages : int;  (** Pages returned through {!read_batch}. *)
  coalesce_runs : int;  (** {!read_batch} calls that carried ≥ 2 pages. *)
}

type t

val create : ?config:config -> unit -> t
(** An empty disk. *)

val config : t -> config
val page_count : t -> int

val alloc : t -> int
(** Appends a zeroed page and returns its page number. Costs nothing:
    allocation happens at import time, which is not benchmarked. *)

val read : t -> int -> Bytes.t
(** [read disk pid] returns a copy of page [pid], advancing the clock by
    the modeled cost and moving the head to [pid]. The copy is a spare
    buffer (see {!recycle}) when one is available.
    @raise Invalid_argument if [pid] is out of range. *)

val read_batch : t -> int list -> (int * Bytes.t) list
(** [read_batch disk pids] services a strictly ascending run of pages as
    one vectored read: the head moves once to the first page (full
    {!read} cost for that page), then streams to the last — every page
    crossed, requested or not, costs one [transfer], so a contiguous run
    of [N] pages costs one seek + [N] transfers. Returns each requested
    page's contents in run order; the head ends at the last page. The
    per-batch counters ([batched_reads], [batch_pages], [coalesce_runs])
    are charged here.
    @raise Invalid_argument on an empty, unsorted or out-of-range run. *)

val write : t -> int -> Bytes.t -> unit
(** [write disk pid bytes] stores a copy of [bytes] as page [pid], with
    the same cost model as {!read}. The copy goes into the page buffer
    the disk already owns; [bytes] stays the caller's.
    @raise Invalid_argument on size or range mismatch. *)

val write_string : t -> int -> string -> int -> unit
(** [write_string disk pid src off] is {!write} of the page-size slice of
    [src] starting at [off], copied once (image loading fills pages
    this way).
    @raise Invalid_argument if [pid] is out of range or [src] holds
    fewer than a page of bytes from [off]. *)

val recycle : t -> Bytes.t -> unit
(** [recycle disk buf] hands a buffer returned by {!read} or
    {!read_batch} back to the disk for reuse by a later read. The
    caller gives up [buf]: nothing may keep a reference to it.
    Recycling one buffer twice makes two later reads share it.
    @raise Invalid_argument if [buf] is not page-size. *)

val is_spare : t -> Bytes.t -> bool
(** Whether [buf] (by physical equality) is on the spare list — for the
    buffer manager's invariant sweep. Linear in the spare count. *)

val charge : t -> float -> unit
(** [charge disk seconds] advances the simulated clock by an explicit
    cost (used by the async I/O layer for [async_overhead]). *)

val read_cost : t -> int -> float
(** The cost {!read} would charge right now, without performing it. *)

val head : t -> int
(** Current head position (page number), -1 before the first access. *)

val elapsed : t -> float
(** Simulated seconds consumed so far. *)

val stats : t -> stats

val reset_clock : t -> unit
(** Zeroes clock and counters and forgets the head position; page
    contents are kept. Used to start each benchmark run cold. *)

val set_trace : t -> bool -> unit
(** Enable/disable recording of the page-access order. *)

val trace : t -> int list
(** Accessed page numbers since tracing was enabled, oldest first. *)

val pp_stats : Format.formatter -> stats -> unit
