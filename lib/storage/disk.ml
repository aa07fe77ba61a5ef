type config = {
  page_size : int;
  seek_base : float;
  seek_factor : float;
  seek_max : float;
  rotational : float;
  transfer : float;
  async_overhead : float;
}

let default_config =
  {
    page_size = 8192;
    seek_base = 0.0010;
    seek_factor = 0.00007;
    seek_max = 0.0080;
    rotational = 0.0030;
    transfer = 0.00013;
    async_overhead = 0.00015;
  }

type stats = {
  reads : int;
  writes : int;
  sequential_reads : int;
  random_reads : int;
  seek_distance : int;
  batched_reads : int;
  batch_pages : int;
  coalesce_runs : int;
}

type t = {
  config : config;
  mutable pages : Bytes.t array;
  mutable count : int;
  mutable head : int;
  mutable clock : float;
  (* Individually mutable counters: [account] runs once per page access,
     and copying a stats record there showed up in scan profiles. The
     public [stats] record is materialised on read. *)
  mutable reads : int;
  mutable writes : int;
  mutable sequential_reads : int;
  mutable random_reads : int;
  mutable seek_distance : int;
  mutable batched_reads : int;
  mutable batch_pages : int;
  mutable coalesce_runs : int;
  mutable tracing : bool;
  mutable trace : int list;  (* newest first *)
  mutable spares : Bytes.t list;
      (* page-size buffers handed back by {!recycle}; reads fill one of
         these before allocating *)
}

let create ?(config = default_config) () =
  {
    config;
    pages = Array.make 64 Bytes.empty;
    count = 0;
    head = -1;
    clock = 0.0;
    reads = 0;
    writes = 0;
    sequential_reads = 0;
    random_reads = 0;
    seek_distance = 0;
    batched_reads = 0;
    batch_pages = 0;
    coalesce_runs = 0;
    tracing = false;
    trace = [];
    spares = [];
  }

let config disk = disk.config
let page_count disk = disk.count

let alloc disk =
  if disk.count = Array.length disk.pages then begin
    let grown = Array.make (2 * Array.length disk.pages) Bytes.empty in
    Array.blit disk.pages 0 grown 0 disk.count;
    disk.pages <- grown
  end;
  let pid = disk.count in
  disk.pages.(pid) <- Bytes.make disk.config.page_size '\000';
  disk.count <- pid + 1;
  pid

let check_pid disk pid =
  if pid < 0 || pid >= disk.count then
    invalid_arg (Printf.sprintf "Disk: page %d out of range (0..%d)" pid (disk.count - 1))

(* Cost of moving the head from its current position to [pid]: nothing
   extra at the current position or the immediately following page (track
   buffer / read-ahead), seek + rotational latency otherwise. *)
let access_cost disk pid =
  let c = disk.config in
  if disk.head = -1 || pid = disk.head || pid = disk.head + 1 then c.transfer
  else begin
    let distance = abs (pid - disk.head) in
    let seek = min c.seek_max (c.seek_base +. (c.seek_factor *. sqrt (float_of_int distance))) in
    seek +. c.rotational +. c.transfer
  end

let is_sequential disk pid = disk.head = -1 || pid = disk.head || pid = disk.head + 1

let account disk pid ~write =
  let cost = access_cost disk pid in
  let sequential = is_sequential disk pid in
  if write then disk.writes <- disk.writes + 1
  else begin
    disk.reads <- disk.reads + 1;
    if sequential then disk.sequential_reads <- disk.sequential_reads + 1
    else begin
      disk.random_reads <- disk.random_reads + 1;
      disk.seek_distance <- disk.seek_distance + abs (pid - disk.head)
    end
  end;
  disk.clock <- disk.clock +. cost;
  disk.head <- pid;
  if disk.tracing then disk.trace <- pid :: disk.trace

(* A copy of page [pid] in a spare buffer if there is one. A fresh page
   buffer is too large for the minor heap, so each allocation here goes
   straight to the major heap; recycling keeps steady-state faults free
   of them. *)
let copy_out disk pid =
  let src = disk.pages.(pid) in
  match disk.spares with
  | [] -> Bytes.copy src
  | buf :: rest ->
    disk.spares <- rest;
    Bytes.blit src 0 buf 0 (Bytes.length src);
    buf

let recycle disk buf =
  if Bytes.length buf <> disk.config.page_size then
    invalid_arg "Disk.recycle: byte buffer has wrong page size";
  disk.spares <- buf :: disk.spares

let is_spare disk buf = List.memq buf disk.spares

let read disk pid =
  check_pid disk pid;
  account disk pid ~write:false;
  copy_out disk pid

(* A vectored multi-page read: one head movement to the first page, then
   a pure stream to the last. Pages skipped inside a gap are transferred
   over but not returned — the drive cannot stop mid-rotation — so a run
   with gaps costs [seek + (last - first + 1) transfers]; a contiguous
   run costs exactly one seek + N transfers. *)
let read_batch disk pids =
  match pids with
  | [] -> invalid_arg "Disk.read_batch: empty run"
  | first :: rest ->
    List.iter (check_pid disk) pids;
    ignore
      (List.fold_left
         (fun prev pid ->
           if pid <= prev then invalid_arg "Disk.read_batch: run must be strictly ascending";
           pid)
         first rest);
    account disk first ~write:false;
    List.iter
      (fun pid ->
        let gap = pid - disk.head in
        disk.reads <- disk.reads + 1;
        disk.sequential_reads <- disk.sequential_reads + 1;
        disk.clock <- disk.clock +. (float_of_int gap *. disk.config.transfer);
        disk.head <- pid;
        if disk.tracing then disk.trace <- pid :: disk.trace)
      rest;
    let n = List.length pids in
    disk.batched_reads <- disk.batched_reads + 1;
    disk.batch_pages <- disk.batch_pages + n;
    if n > 1 then disk.coalesce_runs <- disk.coalesce_runs + 1;
    List.map (fun pid -> (pid, copy_out disk pid)) pids

(* The disk's own page buffers never escape (reads copy out), so a
   write overwrites them in place. *)
let write_string disk pid src off =
  check_pid disk pid;
  if off < 0 || off + disk.config.page_size > String.length src then
    invalid_arg "Disk.write_string: source holds no page at this offset";
  account disk pid ~write:true;
  Bytes.blit_string src off disk.pages.(pid) 0 disk.config.page_size

let write disk pid bytes =
  if Bytes.length bytes <> disk.config.page_size then
    invalid_arg "Disk.write: byte buffer has wrong page size";
  write_string disk pid (Bytes.unsafe_to_string bytes) 0

let charge disk cost = disk.clock <- disk.clock +. cost

let read_cost disk pid =
  check_pid disk pid;
  access_cost disk pid

let head disk = disk.head
let elapsed disk = disk.clock

let stats disk =
  {
    reads = disk.reads;
    writes = disk.writes;
    sequential_reads = disk.sequential_reads;
    random_reads = disk.random_reads;
    seek_distance = disk.seek_distance;
    batched_reads = disk.batched_reads;
    batch_pages = disk.batch_pages;
    coalesce_runs = disk.coalesce_runs;
  }

let reset_clock disk =
  disk.clock <- 0.0;
  disk.head <- -1;
  disk.reads <- 0;
  disk.writes <- 0;
  disk.sequential_reads <- 0;
  disk.random_reads <- 0;
  disk.seek_distance <- 0;
  disk.batched_reads <- 0;
  disk.batch_pages <- 0;
  disk.coalesce_runs <- 0;
  disk.trace <- []

let set_trace disk on =
  disk.tracing <- on;
  if on then disk.trace <- []

let trace disk = List.rev disk.trace

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "reads=%d (seq=%d rnd=%d) writes=%d seek-dist=%d batches=%d/%dp (coalesced %d)"
    s.reads s.sequential_reads s.random_reads s.writes s.seek_distance s.batched_reads
    s.batch_pages s.coalesce_runs
