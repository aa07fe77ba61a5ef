type stats = {
  lookups : int;
  hits : int;
  misses : int;
  async_reads : int;
  evictions : int;
  scan_resist_hits : int;
}

type replacement = Lru | Mru | Fifo | Clock

let replacement_to_string = function
  | Lru -> "lru"
  | Mru -> "mru"
  | Fifo -> "fifo"
  | Clock -> "clock"

let all_replacements = [ Lru; Mru; Fifo; Clock ]

let replacement_of_string s =
  List.find_opt (fun r -> String.equal (replacement_to_string r) s) all_replacements

type frame = {
  pid : int;
  page : Page.t;
  mutable pins : int;
  mutable last_use : int;
  mutable loaded_at : int;
  mutable referenced : bool;
  mutable hot : bool;
      (* 2Q residency class: [true] = main (Am) queue, [false] =
         probationary (A1). With scan resistance off every frame is hot,
         which collapses the two-queue structure back to the historical
         single exact-LRU queue. *)
}

(* One lazy exact-LRU queue of (frame, last_use) snapshots — the
   allocation-free parallel-array structure introduced for the single
   LRU list, now instantiable so the 2Q policy can run a probationary
   queue next to the main one. Rows [head .. len - 1] are pending,
   oldest first. A row is live only while its frame's [hot] class still
   matches [hot_q] — promotion out of A1 kills the frame's probationary
   rows without touching them. *)
type rows = {
  hot_q : bool;
  mutable qframes : frame array;
  mutable qlus : int array;
  mutable qhead : int;
  mutable qlen : int;
  mutable qdeferred : (frame * int) list;
      (* live snapshots that surfaced while pinned, oldest first; they
         keep priority over everything still in the pending rows *)
}

let make_rows hot_q = { hot_q; qframes = [||]; qlus = [||]; qhead = 0; qlen = 0; qdeferred = [] }

type t = {
  disk : Disk.t;
  sched : Io_scheduler.t;
  capacity : int;
  replacement : replacement;
  table : (int, frame) Hashtbl.t;
  clock_ring : int Queue.t;  (* page ids, for Clock *)
  am : rows;  (* main queue — the only queue with scan resistance off *)
  a1 : rows;  (* probationary queue — empty with scan resistance off *)
  mutable a1_count : int;  (* resident probationary frames *)
  mutable scan_resistant : bool;
  mutable evict_observer : (int -> unit) option;
  completed : (int * frame) Queue.t;
      (* Batch-installed pages not yet handed to the consumer. Each entry
         holds one pin, so the replacement policy cannot evict it before
         [await_one] delivers it. *)
  mutable tick : int;
  (* Individually mutable counters: [fix] runs per page access and
     copying a stats record 2-3 times per lookup showed up in scan
     profiles. The public [stats] record is materialised on read. *)
  mutable lookups : int;
  mutable hits : int;
  mutable misses : int;
  mutable async_reads : int;
  mutable evictions : int;
  mutable scan_resist_hits : int;
}

exception Buffer_full

let create ?(capacity = 1000) ?(policy = Io_scheduler.Elevator) ?(replacement = Lru)
    ?(scan_resistant = false) disk =
  if capacity < 1 then invalid_arg "Buffer_manager.create: capacity must be positive";
  {
    disk;
    sched = Io_scheduler.create ~policy disk;
    capacity;
    replacement;
    table = Hashtbl.create (2 * capacity);
    clock_ring = Queue.create ();
    am = make_rows true;
    a1 = make_rows false;
    a1_count = 0;
    scan_resistant;
    evict_observer = None;
    completed = Queue.create ();
    tick = 0;
    lookups = 0;
    hits = 0;
    misses = 0;
    async_reads = 0;
    evictions = 0;
    scan_resist_hits = 0;
  }

let capacity t = t.capacity
let disk t = t.disk
let scheduler t = t.sched
let scan_resistant t = t.scan_resistant
let set_scan_resistant t on = t.scan_resistant <- on
let set_evict_observer t obs = t.evict_observer <- obs

(* A snapshot row is live when its frame is still resident under its pid,
   has not been touched since the row was written, and still belongs to
   the queue's residency class. Each resident frame therefore has at most
   one live row across both queues. *)
let rows_live t q frame lu =
  frame.last_use = lu
  && frame.hot = q.hot_q
  && (match Hashtbl.find_opt t.table frame.pid with Some f -> f == frame | None -> false)

(* Out of row space: compact the pending region down to its live rows
   (order preserved), then double the arrays if still more than half
   full. [seed] fills fresh cells — never read, rows past [qlen] are
   dead. *)
let rows_grow t q seed =
  let live = ref 0 in
  for i = q.qhead to q.qlen - 1 do
    let f = q.qframes.(i) and lu = q.qlus.(i) in
    if rows_live t q f lu then begin
      q.qframes.(!live) <- f;
      q.qlus.(!live) <- lu;
      incr live
    end
  done;
  q.qhead <- 0;
  q.qlen <- !live;
  let n = Array.length q.qframes in
  if n = 0 || q.qlen > n / 2 then begin
    let n' = max 64 (2 * n) in
    let frames = Array.make n' seed and lus = Array.make n' 0 in
    Array.blit q.qframes 0 frames 0 q.qlen;
    Array.blit q.qlus 0 lus 0 q.qlen;
    q.qframes <- frames;
    q.qlus <- lus
  end

let rows_push t q frame =
  if q.qlen = Array.length q.qframes then rows_grow t q frame;
  q.qframes.(q.qlen) <- frame;
  q.qlus.(q.qlen) <- frame.last_use;
  q.qlen <- q.qlen + 1

let rows_clear q =
  q.qframes <- [||];
  q.qlus <- [||];
  q.qhead <- 0;
  q.qlen <- 0;
  q.qdeferred <- []

(* Re-reference of a resident frame. A probationary frame is promoted to
   the main queue here — in 2Q terms, the second reference is what
   proves a page is not a one-shot scan touch. With the knob off every
   frame is already hot and this is exactly the historical LRU touch. *)
let touch t frame =
  t.tick <- t.tick + 1;
  frame.last_use <- t.tick;
  frame.referenced <- true;
  if t.replacement = Lru then begin
    if not frame.hot then begin
      frame.hot <- true;
      t.a1_count <- t.a1_count - 1
    end;
    rows_push t t.am frame
  end

(* First reference of a freshly installed frame. Scan-resistant pools
   park it in the probationary queue; otherwise it enters the main queue
   directly (the historical behaviour, byte for byte). *)
let touch_new t frame =
  t.tick <- t.tick + 1;
  frame.last_use <- t.tick;
  frame.referenced <- true;
  if t.replacement = Lru then
    if t.scan_resistant then begin
      t.a1_count <- t.a1_count + 1;
      rows_push t t.a1 frame
    end
    else begin
      frame.hot <- true;
      rows_push t t.am frame
    end

(* Exact LRU in amortised O(1) — the old fold over every resident frame
   per eviction dominated scan-shaped workloads (a full sweep evicts on
   nearly every fix once the pool is smaller than the document).

   Every touch appends a (frame, last_use) snapshot row, and rows
   surface in last_use order — so the oldest live unpinned row names
   precisely the frame the fold would have picked (last_use is unique:
   the tick is monotonic). Pinned candidates park in [qdeferred],
   oldest first, keeping their priority over everything still pending. *)
let rows_victim t q =
  let rec scan_deferred kept = function
    | [] ->
      q.qdeferred <- List.rev kept;
      None
    | ((frame, lu) as e) :: rest ->
      if not (rows_live t q frame lu) then scan_deferred kept rest
      else if frame.pins > 0 then scan_deferred (e :: kept) rest
      else begin
        q.qdeferred <- List.rev_append kept rest;
        Some frame
      end
  in
  match scan_deferred [] q.qdeferred with
  | Some frame -> Some frame
  | None ->
    let rec pop () =
      if q.qhead >= q.qlen then begin
        q.qhead <- 0;
        q.qlen <- 0;
        None
      end
      else begin
        let frame = q.qframes.(q.qhead) and lu = q.qlus.(q.qhead) in
        q.qhead <- q.qhead + 1;
        if not (rows_live t q frame lu) then pop ()
        else if frame.pins > 0 then begin
          q.qdeferred <- q.qdeferred @ [ (frame, lu) ];
          pop ()
        end
        else Some frame
      end
    in
    pop ()

(* 2Q keeps the probationary queue near a quarter of the pool (the
   classic Kin): while A1 runs over that share, victims come out of it —
   a sequential sweep then recycles its own one-shot pages and never
   touches the hot main queue. *)
let kin t = max 1 (t.capacity / 4)

(* Victim selection among unpinned frames, per the configured policy. *)
let pick_victim t =
  let by f =
    Hashtbl.fold
      (fun _ frame best ->
        if frame.pins > 0 then best
        else
          match best with
          | Some b when f b <= f frame -> best
          | _ -> Some frame)
      t.table None
  in
  match t.replacement with
  | Lru ->
    if t.scan_resistant then begin
      if t.a1_count > kin t then
        match rows_victim t t.a1 with Some _ as v -> v | None -> rows_victim t t.am
      else begin
        match rows_victim t t.am with Some _ as v -> v | None -> rows_victim t t.a1
      end
    end
    else begin
      (* Knob off: the historical exact-LRU choice. The probationary
         queue is empty unless the knob was just switched off; draining
         it here keeps a mid-run toggle sound without perturbing the
         pure knob-off victim trace. *)
      match rows_victim t t.am with Some _ as v -> v | None -> rows_victim t t.a1
    end
  | Mru -> by (fun frame -> -frame.last_use)
  | Fifo -> by (fun frame -> frame.loaded_at)
  | Clock ->
    (* Second chance over the ring; bounded sweep, falls back to LRU if
       everything is pinned or the ring ran dry. *)
    let limit = 2 * (Queue.length t.clock_ring + 1) in
    let rec sweep i =
      if i > limit then by (fun frame -> frame.last_use)
      else begin
        match Queue.take_opt t.clock_ring with
        | None -> by (fun frame -> frame.last_use)
        | Some pid -> begin
          match Hashtbl.find_opt t.table pid with
          | None -> sweep (i + 1) (* stale ring entry *)
          | Some frame ->
            if frame.pins > 0 then begin
              Queue.add pid t.clock_ring;
              sweep (i + 1)
            end
            else if frame.referenced then begin
              frame.referenced <- false;
              Queue.add pid t.clock_ring;
              sweep (i + 1)
            end
            else Some frame
        end
      end
    in
    sweep 0

let evict_one t =
  match pick_victim t with
  | None -> raise Buffer_full
  | Some frame ->
    if (not frame.hot) && t.a1_count > 0 then t.a1_count <- t.a1_count - 1;
    Hashtbl.remove t.table frame.pid;
    Disk.recycle t.disk (Page.to_bytes frame.page);
    t.evictions <- t.evictions + 1;
    match t.evict_observer with None -> () | Some f -> f frame.pid

let ensure_room t = if Hashtbl.length t.table >= t.capacity then evict_one t

let install t pid bytes ~async =
  ensure_room t;
  let frame =
    {
      pid;
      page = Page.of_bytes bytes;
      pins = 1;
      last_use = 0;
      loaded_at = t.tick;
      referenced = true;
      hot = false;
    }
  in
  touch_new t frame;
  Hashtbl.replace t.table pid frame;
  if t.replacement = Clock then Queue.add pid t.clock_ring;
  if async then t.async_reads <- t.async_reads + 1 else t.misses <- t.misses + 1;
  frame

let fix t pid =
  t.lookups <- t.lookups + 1;
  match Hashtbl.find_opt t.table pid with
  | Some frame ->
    frame.pins <- frame.pins + 1;
    if t.scan_resistant && frame.hot then t.scan_resist_hits <- t.scan_resist_hits + 1;
    touch t frame;
    t.hits <- t.hits + 1;
    frame
  | None -> install t pid (Disk.read t.disk pid) ~async:false

let unfix _t frame =
  if frame.pins <= 0 then invalid_arg "Buffer_manager.unfix: frame is not pinned";
  frame.pins <- frame.pins - 1

let page frame = frame.page
let frame_pid frame = frame.pid

let resident t pid = Hashtbl.mem t.table pid

let pinned_count t = Hashtbl.fold (fun _ frame n -> if frame.pins > 0 then n + 1 else n) t.table 0

(* Whether another page could be installed right now: either a frame is
   free or some resident page is unpinned (evictable). *)
let can_admit t =
  Hashtbl.length t.table < t.capacity || pinned_count t < Hashtbl.length t.table

type admission = Resident | Scheduled | Refused

let prefetch t pid =
  if resident t pid then Resident
  else if can_admit t then begin
    Io_scheduler.submit t.sched pid;
    Scheduled
  end
  else Refused

let adopt_or_install t pid bytes =
  match Hashtbl.find_opt t.table pid with
  | Some frame ->
    (* Arrived through another path meanwhile; keep the cached copy. *)
    Disk.recycle t.disk bytes;
    frame.pins <- frame.pins + 1;
    touch t frame;
    frame
  | None -> install t pid bytes ~async:true

let await_one ?(window = 0) t =
  match Queue.take_opt t.completed with
  | Some entry -> Some entry
  | None ->
    if window <= 0 then
      (* The exact pre-batching path: one request serviced, one page
         installed. *)
      match Io_scheduler.complete_one t.sched with
      | None -> None
      | Some (pid, bytes) -> Some (pid, adopt_or_install t pid bytes)
    else begin
      (* Every page of the batch installs pinned, so the run must fit in
         the frames not currently pinned — otherwise a later install of
         this very batch would find no victim. The completion queue's own
         pins count too, keeping back-to-back batches admissible. *)
      let limit = max 1 (t.capacity - pinned_count t) in
      match Io_scheduler.complete_batch ~window ~limit t.sched with
      | None -> None
      | Some pages -> begin
        let entries = List.map (fun (pid, bytes) -> (pid, adopt_or_install t pid bytes)) pages in
        match entries with
        | [] -> None
        | first :: rest ->
          List.iter (fun entry -> Queue.add entry t.completed) rest;
          Some first
      end
    end

let completed_count t = Queue.length t.completed

let abort_async t =
  Queue.iter (fun (_, frame) -> if frame.pins > 0 then frame.pins <- frame.pins - 1) t.completed;
  Queue.clear t.completed;
  Io_scheduler.drain t.sched

let resident_count t = Hashtbl.length t.table

let stats t =
  {
    lookups = t.lookups;
    hits = t.hits;
    misses = t.misses;
    async_reads = t.async_reads;
    evictions = t.evictions;
    scan_resist_hits = t.scan_resist_hits;
  }

(* A frame owns its page buffer from install to eviction. A buffer that
   is also spare, or shared by two frames, was recycled too early: the
   next read would overwrite a page someone may still hold pinned. *)
let shared_buffer t =
  let frames = Hashtbl.fold (fun _ frame acc -> frame :: acc) t.table [] in
  let bytes frame = Page.to_bytes frame.page in
  let rec sweep = function
    | [] -> None
    | frame :: rest -> (
      if Disk.is_spare t.disk (bytes frame) then
        Some (Printf.sprintf "page %d: resident frame's buffer is on the spare list" frame.pid)
      else
        match List.find_opt (fun other -> bytes other == bytes frame) rest with
        | Some other ->
          Some (Printf.sprintf "pages %d and %d share one buffer" frame.pid other.pid)
        | None -> sweep rest)
  in
  sweep frames

let consistency_error t =
  let err = ref None in
  Queue.iter
    (fun (pid, frame) ->
      if !err = None then
        match Hashtbl.find_opt t.table pid with
        | None -> err := Some (Printf.sprintf "completed page %d is not resident" pid)
        | Some f when f != frame ->
          err := Some (Printf.sprintf "completed page %d points at a stale frame" pid)
        | Some f when f.pins <= 0 -> err := Some (Printf.sprintf "completed page %d is unpinned" pid)
        | Some _ ->
          if Io_scheduler.is_pending t.sched pid then
            err := Some (Printf.sprintf "page %d is both completed and pending" pid))
    t.completed;
  match !err with
  | Some _ as e -> e
  | None -> (
    match Io_scheduler.consistency_error t.sched with
    | Some _ as e -> e
    | None ->
      (* The probationary census must agree with the table: it is what
         arbitrates which queue gives up the next victim. *)
      let probation =
        Hashtbl.fold (fun _ frame n -> if frame.hot then n else n + 1) t.table 0
      in
      let tracked = if t.replacement = Lru then t.a1_count else probation in
      if probation <> tracked then
        Some
          (Printf.sprintf "2q: %d probationary frames resident but %d tracked" probation
             tracked)
      else shared_buffer t)

let reset t =
  abort_async t;
  Hashtbl.iter
    (fun pid frame ->
      if frame.pins > 0 then
        invalid_arg (Printf.sprintf "Buffer_manager.reset: page %d still pinned" pid))
    t.table;
  Hashtbl.iter (fun _ frame -> Disk.recycle t.disk (Page.to_bytes frame.page)) t.table;
  Hashtbl.reset t.table;
  Queue.clear t.clock_ring;
  rows_clear t.am;
  rows_clear t.a1;
  t.a1_count <- 0;
  Io_scheduler.drain t.sched;
  t.tick <- 0;
  t.lookups <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.async_reads <- 0;
  t.evictions <- 0;
  t.scan_resist_hits <- 0

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "lookups=%d hits=%d misses=%d async=%d evictions=%d scan-resist=%d" s.lookups
    s.hits s.misses s.async_reads s.evictions s.scan_resist_hits
