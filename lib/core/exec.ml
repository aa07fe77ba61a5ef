module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Path = Xnav_xpath.Path
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Ordpath = Xnav_xml.Ordpath

include Counters.Record

type metrics = counters

type result = { nodes : Store.info list; count : int; metrics : metrics }

let of_list items =
  let remaining = ref items in
  fun () ->
    match !remaining with
    | [] -> None
    | x :: rest ->
      remaining := rest;
      Some x

let plan_error path plan =
  if path = [] then Some "empty path"
  else
    match (plan : Plan.t) with
    | Plan.Reordered _ when not (Path.is_downward path) ->
      Some "reordered plans require downward axes only"
    | _ -> None

let check_plan who path plan =
  Option.iter (fun msg -> invalid_arg (who ^ ": " ^ msg)) (plan_error path plan)

let root_only store contexts =
  match contexts with [ c ] -> Node_id.equal c (Store.root store) | _ -> false

let chain ctx path producer =
  if ctx.Context.config.Context.fused then Fused.create ctx ~path producer
  else
    List.fold_left
      (fun (producer, i) step -> (Xstep.create ctx ~i ~step producer, i + 1))
      (producer, 1) path
    |> fst

(* A built pipeline: the result iterator plus the I/O operator (if the
   plan has one), so post-run invariants can inspect it and a stuck
   post-fallback pipeline can be torn down. *)
type stream = {
  next : unit -> Store.info option;
  ctx : Context.t;
  sched : Xschedule.t option;
  scan : Xscan.t option;
  index : Xindex.t option;
}

let pipeline ctx store path plan contexts =
  let path_len = Path.length path in
  let stream ?sched ?scan ?index next = { next; ctx; sched; scan; index } in
  match (plan : Plan.t) with
  | Plan.Simple { dedup_intermediate } ->
    let infos = List.map (fun id -> Store.info store id) contexts in
    stream
      (List.fold_left
         (fun producer step -> Unnest_map.create ctx ~step ~dedup:dedup_intermediate producer)
         (of_list infos) path)
  | Plan.Reordered { io; seeding } ->
    (* Summary seeding needs the partition's root-anchored classes. *)
    let summary =
      if seeding = Plan.Summary && root_only store contexts then Path_instance.summary store path
      else None
    in
    let schedule_pipeline speculative =
      let sched =
        Xschedule.create ctx ~speculative ~path_len ~summary ~contexts:(of_list contexts)
      in
      let top = chain ctx path (fun () -> Xschedule.next sched) in
      stream ~sched (Xassembly.create ctx ~path_len ~xschedule:(Some sched) ~dslash:false top)
    in
    (match io with
    | Plan.Io_schedule { speculative } -> schedule_pipeline speculative
    | Plan.Io_scan ->
      let sorted = List.sort Node_id.compare contexts in
      let scan = Xscan.create ctx ~path_len ~summary ~contexts:(fun () -> of_list sorted) in
      let top = chain ctx path (fun () -> Xscan.next scan) in
      stream ~scan
        (Xassembly.create ctx ~path_len ~xschedule:None ~dslash:(seeding = Plan.Dslash) top)
    | Plan.Io_index { resolve } ->
      if root_only store contexts then begin
        let index = Xindex.create ctx ~path ~resolve ~contexts:(fun () -> of_list contexts) in
        let top = chain ctx path (fun () -> Xindex.next index) in
        stream ~index
          (Xassembly.create ctx ~path_len ~xschedule:None ~xindex:index ~dslash:false top)
      end
      else
        (* Non-root contexts: the partition's root-anchored classes
           cannot seed them. Degrade to the speculative schedule shape:
           same results, no index counters. *)
        schedule_pipeline true)

let abandon s =
  Option.iter Xschedule.abandon s.sched;
  Option.iter Xscan.abandon s.scan;
  Option.iter Xindex.abandon s.index

(* Opening a statement, shared by [execute] and [prepare]: reject a bad
   (path, plan) pair, default the contexts to the root, create the run
   context with its trace, and put the store and its pool on the
   config's decode caching and eviction policy — knob-off runs go back
   to per-access decoding and the historical exact LRU before the first
   fix. The pipeline is built separately, because [execute] takes
   its snapshot and consults the cache in between: Simple's pipeline
   reads its contexts when it is built. *)
let context ~config store =
  let ctx = Context.create ~config store in
  Store.set_swizzling store config.Context.swizzling;
  Buffer_manager.set_scan_resistant (Store.buffer store) config.Context.scan_resistant;
  ctx

let open_statement ~who ~config ?contexts ?trace store path plan =
  check_plan who path plan;
  let contexts = match contexts with Some c -> c | None -> [ Store.root store ] in
  let ctx = context ~config store in
  ctx.Context.trace <- trace;
  (ctx, contexts)

let doc_order (a : Store.info) (b : Store.info) = Ordpath.compare a.ordpath b.ordpath

let answer ~ordered out =
  let seen = Node_id.Seen.create () in
  let distinct = Vec.create () in
  Vec.iter (fun (i : Store.info) -> if Node_id.Seen.add seen i.id then Vec.push distinct i) out;
  if ordered then Vec.sorted_to_list doc_order distinct else Vec.to_list distinct

(* --- the measured-run boundary ------------------------------------------- *)

type snapshot = {
  buffer : Buffer_manager.t;
  stores : Store.t list;
  disk_before : Disk.stats;
  io_before : float;
  buf_before : Buffer_manager.stats;
  swiz_before : int * int;
  cpu_before : float;
  words_before : float;
}

let swizzle_stats stores =
  List.fold_left
    (fun (h, m) store ->
      let h', m' = Store.swizzle_stats store in
      (h + h', m + m'))
    (0, 0) stores

let snapshot ~cold buffer stores =
  let disk = Buffer_manager.disk buffer in
  if cold then begin
    Buffer_manager.reset buffer;
    Disk.reset_clock disk
  end;
  let disk_before = Disk.stats disk in
  let io_before = Disk.elapsed disk in
  let buf_before = Buffer_manager.stats buffer in
  let swiz_before = swizzle_stats stores in
  let cpu_before = Sys.time () in
  let words_before = Gc.minor_words () in
  { buffer; stores; disk_before; io_before; buf_before; swiz_before; cpu_before; words_before }

let measure ~who s c =
  let disk = Buffer_manager.disk s.buffer in
  c.cpu_time <- Sys.time () -. s.cpu_before;
  c.io_time <- Disk.elapsed disk -. s.io_before;
  c.total_time <- c.io_time +. c.cpu_time;
  c.minor_words <- int_of_float (Gc.minor_words () -. s.words_before);
  let d = Disk.stats disk and d0 = s.disk_before in
  c.page_reads <- d.Disk.reads - d0.Disk.reads;
  c.sequential_reads <- d.Disk.sequential_reads - d0.Disk.sequential_reads;
  c.random_reads <- d.Disk.random_reads - d0.Disk.random_reads;
  c.seek_distance <- d.Disk.seek_distance - d0.Disk.seek_distance;
  c.batched_reads <- d.Disk.batched_reads - d0.Disk.batched_reads;
  c.batch_pages <- d.Disk.batch_pages - d0.Disk.batch_pages;
  c.coalesce_runs <- d.Disk.coalesce_runs - d0.Disk.coalesce_runs;
  let b = Buffer_manager.stats s.buffer and b0 = s.buf_before in
  c.buffer_lookups <- b.Buffer_manager.lookups - b0.Buffer_manager.lookups;
  c.buffer_hits <- b.Buffer_manager.hits - b0.Buffer_manager.hits;
  c.buffer_misses <- b.Buffer_manager.misses - b0.Buffer_manager.misses;
  c.async_reads <- b.Buffer_manager.async_reads - b0.Buffer_manager.async_reads;
  c.scan_resist_hits <- b.Buffer_manager.scan_resist_hits - b0.Buffer_manager.scan_resist_hits;
  let hits, misses = swizzle_stats s.stores in
  c.swizzle_hits <- hits - fst s.swiz_before;
  c.swizzle_misses <- misses - snd s.swiz_before;
  let pinned = Buffer_manager.pinned_count s.buffer in
  if pinned <> 0 then failwith (Printf.sprintf "%s: %d pages left pinned" who pinned)

let execute ~cold ?(config = Context.default_config) ?contexts ?trace ?(ordered = true) store path
    plan =
  let ctx, contexts = open_statement ~who:"Exec.run" ~config ?contexts ?trace store path plan in
  let c = ctx.Context.counters in
  let snap = snapshot ~cold (Store.buffer store) [ store ] in

  (* The repeat-traffic front door: root-context statements are answered
     from the result cache before any planning or I/O happens. Only the
     root context is cacheable — that is what repeated statements are —
     and the stamp check inside [Result_cache.find] guarantees an
     updated store never serves a stale answer. *)
  let cache_key =
    if config.Context.result_cache && root_only store contexts then Some (Path.to_string path)
    else None
  in
  match Option.bind cache_key (Result_cache.find store) with
  | Some entry ->
    c.cache_hits <- 1;
    measure ~who:"Exec.run" snap c;
    { nodes = Result_cache.nodes entry; count = Result_cache.count entry; metrics = c }
  | None ->

  (* While a cacheable run executes, record the clusters it reads: the
     footprint makes the installed entry survive writes to other
     clusters (see {!Result_cache}). The log nests — the previous one
     (a workload lane's, typically) is restored afterwards. *)
  let miss = Option.map (fun key -> (key, Hashtbl.create 32)) cache_key in
  let saved_log = Option.map (fun (_, touched) -> Store.swap_touch_log store (Some touched)) miss in
  let stream = pipeline ctx store path plan contexts in
  let out = Vec.create () in
  let drain next =
    let rec go () =
      match next () with
      | None -> ()
      | Some info ->
        Vec.push out info;
        go ()
    in
    go ()
  in
  let restarted =
    try
      drain stream.next;
      false
    with Buffer_manager.Buffer_full when Context.fallback ctx ->
      (* After a fallback the XSteps re-navigate globally, which needs a
         free buffer frame — but the I/O operator still pins its current
         cluster, so a near-minimal buffer can wedge. Tear the pipeline
         down (releasing that pin and cancelling its I/O) and recompute
         the whole query with the simple method, as the paper's fallback
         prescribes. *)
      abandon stream;
      Vec.clear out;
      drain (pipeline ctx store path Plan.simple contexts).next;
      true
  in
  Option.iter (fun saved -> ignore (Store.swap_touch_log store saved)) saved_log;
  measure ~who:"Exec.run" snap c;

  (* Final duplicate elimination (reordered plans are already
     duplicate-free through R, but the Simple method needs it, Sec. 5.1)
     and re-established document order (Sec. 5.5). *)
  let nodes = answer ~ordered out in
  let count = List.length nodes in

  (* Cache fill after a miss. Entries always hold document order so a
     hit can serve ordered and unordered callers alike. *)
  Option.iter
    (fun (key, touched) ->
      Result_cache.install c store key ~touched
        (if ordered then nodes else List.sort doc_order nodes))
    miss;

  if config.Context.validate then begin
    (* Result conservation only applies when XAssembly produced the
       final answer — not after a restart, which leaves its counters at
       the aborted attempt's values. *)
    let results =
      match (plan, restarted) with
      | Plan.Reordered _, false -> Some count
      | _ -> None
    in
    Invariant.enforce ?xschedule:stream.sched ?xindex:stream.index ?results ctx
  end;
  { nodes; count; metrics = c }

let run ?config ?contexts ?trace ?ordered store path plan =
  execute ~cold:false ?config ?contexts ?trace ?ordered store path plan

let prepare ?(config = Context.default_config) ?contexts ?trace store path plan =
  let ctx, contexts = open_statement ~who:"Exec.prepare" ~config ?contexts ?trace store path plan in
  pipeline ctx store path plan contexts

let stream_next stream = stream.next ()
let stream_abandon = abandon
let stream_ctx stream = stream.ctx

let stream_demand stream =
  match stream.sched with Some x -> Xschedule.queued_clusters x | None -> []

let stream_scan_window stream = Option.bind stream.sched Xschedule.scan_window

let stream_violations ?results stream =
  Invariant.post_run ?xschedule:stream.sched ?xindex:stream.index ?results stream.ctx

let cold_run ?config ?contexts ?trace ?ordered store path plan =
  execute ~cold:true ?config ?contexts ?trace ?ordered store path plan

