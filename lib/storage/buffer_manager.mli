(** The page buffer: caches disk pages in main memory frames, with
    pinning, LRU replacement, and an asynchronous prefetch path.

    Two access paths mirror the paper's cost distinction:
    - {!fix} is the synchronous path the Simple plan (and fallback mode)
      uses: a hash lookup, then — on a miss — a blocking, possibly
      random, disk read.
    - {!prefetch} + {!await_one} is the asynchronous path XSchedule uses:
      requests pile up in the {!Io_scheduler}, which serves them in a
      seek-minimising order.

    Every {!fix} counts as a hash-table lookup in the statistics, and a
    fix that returns is either a hit or a miss ({!resident} is not
    counted), so [lookups = hits + misses] unless a fix raised
    {!Buffer_full}. The paper
    identifies these lookups (and the implied latch traffic) as the
    "swizzling" cost that passing direct pointers between XStep
    operators avoids.

    {b Buffer ownership.} A frame owns the page buffer it was installed
    with until the frame leaves the pool. Eviction, {!reset} and an
    asynchronous arrival of an already resident page hand the buffer
    back to the {!Disk} spare list ({!Disk.recycle}), and the next read
    overwrites it. So a frame's bytes are valid only while the frame is
    pinned: whoever keeps {!page} past its {!unfix} may later see
    another page's contents. [Store] enforces this by killing a view on
    release. *)

type stats = {
  lookups : int;  (** Hash-table probes (the swizzling cost proxy). *)
  hits : int;
  misses : int;  (** Synchronous reads caused by {!fix}. *)
  async_reads : int;  (** Pages installed via {!await_one}. *)
  evictions : int;
  scan_resist_hits : int;
      (** Synchronous {!fix} hits served from the protected main (Am)
          queue while the 2Q policy is active — the accesses whose pages
          a plain LRU would have let a concurrent sequential scan flush.
          Always 0 with {!scan_resistant} off. *)
}

type replacement = Lru | Mru | Fifo | Clock
(** Victim selection among unpinned frames: least/most recently used,
    first loaded, or the clock (second chance) approximation of LRU. *)

val replacement_of_string : string -> replacement option
val replacement_to_string : replacement -> string
val all_replacements : replacement list

type frame
(** A pinned page in the buffer. Holding a [frame] is the swizzled
    representation: node access through it costs no lookups. *)

type t

exception Buffer_full
(** Raised when a page must be brought in but every frame is pinned. *)

val create :
  ?capacity:int ->
  ?policy:Io_scheduler.policy ->
  ?replacement:replacement ->
  ?scan_resistant:bool ->
  Disk.t ->
  t
(** [create disk] makes a buffer of [capacity] frames (default 1000, the
    paper's configuration) over [disk], with an internal scheduler using
    [policy] (default [Elevator]) and [replacement] victim selection
    (default [Lru]). [scan_resistant] (default [false]) starts the pool
    with the 2Q policy on — see {!set_scan_resistant}. *)

val scan_resistant : t -> bool

val set_scan_resistant : t -> bool -> unit
(** Toggle the 2Q scan-resistant eviction policy (LRU pools only; the
    other replacement policies ignore it). When on, freshly installed
    pages enter a {e probationary} (A1) queue and are only {e promoted}
    to the main (Am) queue on a re-reference; while the probationary
    queue holds more than a quarter of the pool (the classic 2Q Kin
    share) victims are taken from it, so a single sequential sweep
    recycles its own one-shot pages instead of flushing the hot working
    set. Both queues reuse the allocation-free lazy exact-LRU snapshot
    rows. With the knob off (the default) every install goes straight to
    the main queue and the pool reproduces the historical exact-LRU
    victim choices byte for byte. *)

val set_evict_observer : t -> (int -> unit) option -> unit
(** Install (or remove) a callback invoked with the page id of every
    frame the replacement policy evicts — victim-trace recording for the
    2Q differential tests. [None] (the default) costs nothing. *)

val capacity : t -> int
val disk : t -> Disk.t
val scheduler : t -> Io_scheduler.t

val fix : t -> int -> frame
(** Pin page [pid], reading it synchronously on a miss. Must be matched
    by {!unfix}. @raise Buffer_full if no frame can be evicted. *)

val unfix : t -> frame -> unit
(** Release one pin. @raise Invalid_argument if not pinned. *)

val page : frame -> Page.t
(** The page contents; valid only while the frame is pinned. Once the
    last pin is gone the frame may be evicted and its buffer refilled
    with another page. *)

val frame_pid : frame -> int

val resident : t -> int -> bool
(** Whether the page is currently buffered: a plain table probe, not
    counted in the statistics. *)

type admission =
  | Resident  (** Already buffered; no request submitted. *)
  | Scheduled  (** A request is now pending in the {!Io_scheduler}. *)
  | Refused
      (** The buffer could not accept another page: every frame is
          pinned and no slot is free. The caller must retry later (after
          releasing pins) — submitting anyway would make {!await_one}
          raise {!Buffer_full} mid-run. *)

val prefetch : t -> int -> admission
(** Ask for page [pid] asynchronously. *)

val can_admit : t -> bool
(** Whether another page could be installed right now: a frame is free
    or some resident page is unpinned. *)

val await_one : ?window:int -> t -> (int * frame) option
(** Deliver one asynchronously loaded page, pinned. Pages queued by an
    earlier batch are delivered first; then the scheduler services a
    pending request. With [window > 0] the service is a
    {!Io_scheduler.complete_batch} coalesced read: every returned page is
    installed pinned (never evicting a pinned or still-queued page — the
    run is capped at the unpinned frame count), the first is returned and
    the rest wait in the completion queue for subsequent calls. With
    [window <= 0] (the default) this is exactly the historical
    one-request/one-page path. [None] iff nothing is queued or pending.
    @raise Buffer_full if no frame can be evicted. *)

val completed_count : t -> int
(** Batch-installed pages awaiting delivery (for the invariant layer —
    a clean end of run leaves this at 0). *)

val abort_async : t -> unit
(** Abandon the asynchronous pipeline: release the completion queue's
    pins and drop it, then drain pending scheduler requests. Used when a
    plan stops early (e.g. an exception) with loads still in flight. *)

val consistency_error : t -> string option
(** [None] iff the batch pipeline is coherent: every completion-queue
    entry is resident, pinned and not simultaneously pending in the
    scheduler — and the scheduler's own structures agree
    ({!Io_scheduler.consistency_error}). It also reports a buffer
    recycled too early: a resident frame whose bytes are on the disk's
    spare list, or two resident frames sharing one buffer (both by
    physical equality). *)

val pinned_count : t -> int
(** Number of frames with a non-zero pin count (for leak tests). *)

val resident_count : t -> int
(** Number of occupied frames (for the invariant layer). *)

val stats : t -> stats

val reset : t -> unit
(** Drop every frame and pending request, zeroing statistics — a cold
    cache, as each measured run in the paper starts with. Undelivered
    completion-queue pages are released first (their pins belong to the
    buffer, not the caller). Every frame's buffer goes back to the
    disk's spare list.
    @raise Invalid_argument if any other frame is still pinned. *)

val pp_stats : Format.formatter -> stats -> unit
