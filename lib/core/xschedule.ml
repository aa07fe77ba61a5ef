module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Node_record = Xnav_store.Node_record
module Buffer_manager = Xnav_storage.Buffer_manager
module Io_scheduler = Xnav_storage.Io_scheduler
module Disk = Xnav_storage.Disk
open Path_instance

type item = { s_l : int; n_l : Node_id.t; s_r : int; target : Node_id.t }

type t = {
  ctx : Context.t;
  speculative : bool;
  path_len : int;
  summary : Path_instance.summary option;
  contexts : unit -> Node_id.t option;
  queue : (int, item Queue.t) Hashtbl.t;  (* cluster -> pending items *)
  mutable qsize : int;
  visited : (int, unit) Hashtbl.t;
  mutable ready : int list;  (* resident clusters with queued items *)
  mutable refused : int list;  (* clusters whose prefetch the buffer refused *)
  mutable current : (int * Store.view) option;
  agenda : Path_instance.t Queue.t;  (* instances for the current cluster *)
  mutable exhausted : bool;
  mutable window_next : int;  (* next page of the active scan window *)
  mutable window_hi : int;  (* inclusive bound; window_next > window_hi = inactive *)
  mutable visit_lo : int;  (* smallest cluster visited so far; max_int before any *)
  mutable visit_hi : int;  (* largest cluster visited so far; -1 before any *)
}

let create ctx ~speculative ~path_len ~summary ~contexts =
  {
    ctx;
    speculative;
    path_len;
    summary;
    contexts;
    queue = Hashtbl.create 64;
    qsize = 0;
    visited = Hashtbl.create 64;
    ready = [];
    refused = [];
    current = None;
    agenda = Queue.create ();
    exhausted = false;
    window_next = 0;
    window_hi = -1;
    visit_lo = max_int;
    visit_hi = -1;
  }

let queue_size t = t.qsize
let refused_count t = List.length t.refused

let queued_clusters t = Hashtbl.fold (fun pid _ acc -> pid :: acc) t.queue []

let scan_window t = if t.window_next <= t.window_hi then Some (t.window_next, t.window_hi) else None

let buffer t = Store.buffer t.ctx.Context.store

(* Queue an item and make sure its cluster's I/O has been requested. A
   refused prefetch (every frame pinned) is remembered in [refused] and
   retried by the dispatch loop once pins are released — dropping it here
   would strand the queued items forever. *)
let enqueue t item =
  let cluster = Node_id.cluster item.target in
  let fresh = not (Hashtbl.mem t.queue cluster) in
  let q =
    match Hashtbl.find_opt t.queue cluster with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace t.queue cluster q;
      q
  in
  Queue.add item q;
  t.qsize <- t.qsize + 1;
  let c = t.ctx.Context.counters in
  c.Context.q_enqueued <- c.Context.q_enqueued + 1;
  if t.qsize > c.Context.q_peak then c.Context.q_peak <- t.qsize;
  if fresh then begin
    Context.emit t.ctx (fun () -> Printf.sprintf "XSchedule: async request for cluster %d" cluster);
    let is_current = match t.current with Some (pid, _) -> pid = cluster | None -> false in
    if not is_current then begin
      match Buffer_manager.prefetch (buffer t) cluster with
      | Buffer_manager.Resident ->
        if not (List.mem cluster t.ready) then t.ready <- cluster :: t.ready
      | Buffer_manager.Scheduled -> ()
      | Buffer_manager.Refused ->
        c.Context.prefetch_refusals <- c.Context.prefetch_refusals + 1;
        if not (List.mem cluster t.refused) then t.refused <- cluster :: t.refused
    end
  end

(* Re-submit refused prefetches (clusters may have become loadable since
   pins were released, or even resident through another path). *)
let retry_refused t =
  match t.refused with
  | [] -> ()
  | refused ->
    t.refused <- [];
    List.iter
      (fun cluster ->
        if Hashtbl.mem t.queue cluster then begin
          match Buffer_manager.prefetch (buffer t) cluster with
          | Buffer_manager.Resident ->
            if not (List.mem cluster t.ready) then t.ready <- cluster :: t.ready
          | Buffer_manager.Scheduled -> ()
          | Buffer_manager.Refused -> t.refused <- cluster :: t.refused
        end)
      refused

let push t ~s_l ~n_l ~s_r ~target =
  let cluster = Node_id.cluster target in
  if t.speculative && Hashtbl.mem t.visited cluster then
    (* Already visited: the speculative instances generated there subsume
       this continuation. *)
    ()
  else enqueue t { s_l; n_l; s_r; target }

let replenish t =
  (* At least one queued item per round even for a degenerate k <= 0,
     otherwise the producer is never drained and contexts are lost. *)
  let target = max 1 t.ctx.Context.config.Context.k in
  while (not t.exhausted) && t.qsize < target do
    match t.contexts () with
    | None -> t.exhausted <- true
    | Some id -> enqueue t { s_l = 0; n_l = id; s_r = 0; target = id }
  done

(* Turn a queued item into an instance against the current view. *)
let instantiate view item =
  let slot = item.target.Node_id.slot in
  let n_r =
    match Store.get view slot with
    | Node_record.Core core -> R_core { view; slot; core }
    | Node_record.Up _ -> R_entry { view; slot }
    | Node_record.Down _ ->
      invalid_arg "Xschedule: queued target is a Down border"
  in
  { s_l = item.s_l; n_l = item.n_l; left_incomplete = false; s_r = item.s_r; n_r }

(* Drain the queued items of cluster [pid] into the agenda (against
   [view]), speculating on first visit if configured. *)
let load_agenda t pid view =
  let first_visit = not (Hashtbl.mem t.visited pid) in
  if first_visit then begin
    Hashtbl.replace t.visited pid ();
    if pid < t.visit_lo then t.visit_lo <- pid;
    if pid > t.visit_hi then t.visit_hi <- pid;
    t.ctx.Context.counters.Context.clusters_visited <-
      t.ctx.Context.counters.Context.clusters_visited + 1
  end;
  (match Hashtbl.find_opt t.queue pid with
  | None -> ()
  | Some q ->
    Queue.iter (fun item -> Queue.add (instantiate view item) t.agenda) q;
    t.qsize <- t.qsize - Queue.length q;
    t.ctx.Context.counters.Context.q_served <-
      t.ctx.Context.counters.Context.q_served + Queue.length q;
    Hashtbl.remove t.queue pid);
  if first_visit && t.speculative && not (Context.fallback t.ctx) then
    Path_instance.speculate t.ctx ~path_len:t.path_len ?summary:t.summary view t.agenda

let release_current t =
  match t.current with
  | None -> ()
  | Some (_, view) ->
    Store.release t.ctx.Context.store view;
    t.current <- None

let make_current t pid view =
  release_current t;
  Context.emit t.ctx (fun () -> Printf.sprintf "XSchedule: cluster %d loaded, serving its queue" pid);
  t.current <- Some (pid, view);
  load_agenda t pid view

(* Tear the operator down mid-run: release the current pin, cancel
   outstanding prefetches and drop all queued work (accounted in
   [q_dropped] so conservation checks still balance). Used by [Exec]
   when the in-place fallback cannot proceed and the whole plan is
   recomputed with the simple method. *)
let abandon t =
  release_current t;
  Queue.clear t.agenda;
  t.ready <- [];
  t.refused <- [];
  t.window_next <- 0;
  t.window_hi <- -1;
  t.ctx.Context.counters.Context.q_dropped <-
    t.ctx.Context.counters.Context.q_dropped + t.qsize;
  Hashtbl.reset t.queue;
  t.qsize <- 0;
  t.exhausted <- true;
  Buffer_manager.abort_async (buffer t)

(* Pick the next ready (resident) cluster to serve, weighing each
   candidate by queued instance count — resident clusters all cost one
   transfer to re-fix, so the cost divisor cancels — with min-pid as
   tie-break. *)
let take_ready t =
  match t.ready with
  | [] -> None
  | ready ->
    let qlen p = match Hashtbl.find_opt t.queue p with Some q -> Queue.length q | None -> 0 in
    let best =
      List.fold_left
        (fun best p ->
          match best with
          | Some b when qlen p > qlen b || (qlen p = qlen b && p < b) -> Some p
          | None -> Some p
          | some -> some)
        None ready
    in
    (match best with Some p -> t.ready <- List.filter (fun x -> x <> p) ready | None -> ());
    best

(* Pick a queued cluster to serve directly (no pending I/O for it) by
   the paper's cost-sensitive rule: weight = queued instance count ÷
   estimated access cost from the current head position (a resident
   cluster costs only a transfer), min-pid breaking exact weight ties,
   so the pick — and the I/O trace — is deterministic across hash-table
   iteration orders. *)
let pick_direct t =
  let buf = buffer t in
  let disk = Buffer_manager.disk buf in
  let weight pid q =
    let cost =
      if Buffer_manager.resident buf pid then (Disk.config disk).Disk.transfer
      else Disk.read_cost disk pid
    in
    float_of_int (Queue.length q) /. cost
  in
  Hashtbl.fold
    (fun pid q best ->
      let w = weight pid q in
      match best with
      | Some (bw, bpid) when bw > w || (bw = w && bpid < pid) -> best
      | _ -> Some (w, pid))
    t.queue None
  |> Option.map snd

(* Adaptive hybrid (tentpole layer 3): when the demand stream has been
   visiting its page region densely — the visited-cluster count over the
   visited span exceeds [scan_threshold] — the query is on an XScan-like
   trajectory: nearly every page ahead will be demanded too, and each
   will pay [async_overhead] on top of its transfer when it arrives as a
   separate request. (Pending-set density is useless as the signal here:
   demand discovery keeps only a handful of requests outstanding at any
   instant, however dense the eventual access pattern.) So stream ahead:
   open a bounded sequential window just past the visited frontier and
   sweep it page by page with synchronous sequential reads, serving
   queued items and seeding speculative instances exactly as XScan does
   (via [load_agenda]'s speculation), then fall back to demand
   scheduling. The window is bounded by half the buffer so read-ahead
   cannot wash the pool, and it only opens while demand is still
   outstanding. Not started in fallback mode: fallback must not create
   speculative work. *)
let start_scan_window t =
  let threshold = t.ctx.Context.config.Context.scan_threshold in
  if threshold <= 0.0 || Context.fallback t.ctx then false
  else begin
    let sched = Buffer_manager.scheduler (buffer t) in
    let pending = Io_scheduler.pending_count sched in
    let visited = Hashtbl.length t.visited in
    let store = t.ctx.Context.store in
    let last_page = Store.first_page store + Store.page_count store - 1 in
    if (pending = 0 && t.qsize = 0) || visited < 4 || t.visit_hi >= last_page then false
    else begin
      let density = float_of_int visited /. float_of_int (t.visit_hi - t.visit_lo + 1) in
      if density >= threshold then begin
        let span = max 8 (Buffer_manager.capacity (buffer t) / 2) in
        t.window_next <- t.visit_hi + 1;
        t.window_hi <- min last_page (t.visit_hi + span);
        let c = t.ctx.Context.counters in
        c.Context.scan_windows <- c.Context.scan_windows + 1;
        Context.emit t.ctx (fun () ->
            Printf.sprintf "XSchedule: scan window over pages %d..%d (density %.2f)" t.window_next
              t.window_hi density);
        true
      end
      else false
    end
  end

(* Next page the active scan window should visit: one with queued items,
   or an unvisited one (worth reading for its speculative seeds and as
   free read-ahead — the stream is already positioned). A visited page
   with nothing queued is skipped without I/O, and any pending request it
   still holds is cancelled as stale — otherwise stale requests could
   keep the pending set dense and re-trigger windows that sweep nothing,
   a livelock. *)
let rec advance_window t =
  if t.window_next > t.window_hi then None
  else begin
    let pid = t.window_next in
    t.window_next <- pid + 1;
    if Hashtbl.mem t.queue pid || not (Hashtbl.mem t.visited pid) then Some pid
    else begin
      ignore (Io_scheduler.cancel (Buffer_manager.scheduler (buffer t)) pid);
      advance_window t
    end
  end

let rec next t =
  match Queue.take_opt t.agenda with
  | Some instance -> Some instance
  | None -> begin
    replenish t;
    (* Serve remaining items for the current cluster first. *)
    match t.current with
    | Some (pid, view) when Hashtbl.mem t.queue pid ->
      load_agenda t pid view;
      next t
    | _ ->
      (* The current cluster is done: release its pin *before* acquiring
         the next view, so even a one-frame buffer makes progress, then
         give refused prefetches another chance now that the pin is
         gone. *)
      release_current t;
      retry_refused t;
      if sweep_window t then next t
      else begin
        match take_ready t with
        | Some pid ->
          if Hashtbl.mem t.queue pid then begin
            make_current t pid (Store.view t.ctx.Context.store pid);
            next t
          end
          else next t
        | None ->
          if start_scan_window t then next t
          else begin
            let window = t.ctx.Context.config.Context.coalesce_window in
            match Buffer_manager.await_one ~window (buffer t) with
            | Some (pid, frame) ->
              let view = Store.view_of_frame t.ctx.Context.store frame in
              if Hashtbl.mem t.queue pid then begin
                make_current t pid view;
                next t
              end
              else begin
                (* A stale request (its items were served through another
                   path); drop the pin and keep going. *)
                Store.release t.ctx.Context.store view;
                next t
              end
            | None ->
              if t.qsize = 0 then None (* replenish guarantees exhaustion here *)
              else begin
                (* Items remain but have no pending I/O: their clusters
                   are resident (or were evicted meanwhile, or their
                   prefetch was refused); [pick_direct] serves one so the
                   pick — and with it the I/O trace — is deterministic. *)
                match pick_direct t with
                | Some pid ->
                  (* [Store.view] may raise [Buffer_full]. For a
                     stand-alone run that cannot happen (the current pin
                     was released above, so at least one frame is
                     evictable); under concurrent streams the other
                     queries' pins can exhaust the pool, and the raised
                     [Buffer_full] is the driver's signal to tear this
                     stream down and recover (fallback restart, or the
                     workload layer's serial recompute). *)
                  make_current t pid (Store.view t.ctx.Context.store pid);
                  next t
                | None ->
                  failwith
                    (Printf.sprintf
                       "Xschedule: queue accounting broken: qsize=%d with no queued cluster"
                       t.qsize)
              end
          end
      end
  end

(* One step of the active scan window: visit the next worthwhile page in
   the range sequentially, cancelling its pending request (the stream
   supersedes it). Returns whether a page was made current. On a pin
   shortage the window is abandoned and the remaining pending requests
   are left for the demand path. *)
and sweep_window t =
  if t.window_next <= t.window_hi && t.qsize = 0 && Io_scheduler.pending_count (Buffer_manager.scheduler (buffer t)) = 0
  then begin
    (* Demand dried up mid-window: the sweep is read-ahead for demand,
       so reading on would charge transfers nobody will use. *)
    t.window_next <- 0;
    t.window_hi <- -1
  end;
  match advance_window t with
  | None -> false
  | Some pid -> begin
    let sched = Buffer_manager.scheduler (buffer t) in
    let was_pending = Io_scheduler.cancel sched pid in
    match Store.view t.ctx.Context.store pid with
    | view ->
      let c = t.ctx.Context.counters in
      c.Context.scan_window_pages <- c.Context.scan_window_pages + 1;
      make_current t pid view;
      true
    | exception Buffer_manager.Buffer_full ->
      if was_pending then Io_scheduler.submit sched pid;
      t.window_next <- 0;
      t.window_hi <- -1;
      false
  end
