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

(* Build the result iterator for [plan]; also hand back the I/O operator
   (if the plan has one) so post-run invariants can inspect it and a
   stuck post-fallback pipeline can be torn down. *)
let pipeline ctx store path plan contexts =
  let path_len = Path.length path in
  match (plan : Plan.t) with
  | Plan.Simple { dedup_intermediate } ->
    let infos = List.map (fun id -> Store.info store id) contexts in
    let producer =
      List.fold_left
        (fun producer step -> Unnest_map.create ctx ~step ~dedup:dedup_intermediate producer)
        (of_list infos) path
    in
    (producer, None, None, None)
  | Plan.Reordered { io; dslash } ->
    (* Off reproduces the per-step chain (and its counter stream)
       exactly. *)
    let chain base =
      if ctx.Context.config.Context.fused then Fused.create ctx ~path base
      else
        List.fold_left
          (fun (producer, i) step -> (Xstep.create ctx ~i ~step producer, i + 1))
          (base, 1) path
        |> fst
    in
    let schedule_pipeline speculative =
      let sched = Xschedule.create ctx ~speculative ~path_len ~contexts:(of_list contexts) in
      let top = chain (fun () -> Xschedule.next sched) in
      (Xassembly.create ctx ~path_len ~xschedule:(Some sched) ~dslash:false top, Some sched, None, None)
    in
    (match io with
    | Plan.Io_schedule { speculative } -> schedule_pipeline speculative
    | Plan.Io_scan ->
      let sorted = List.sort Node_id.compare contexts in
      let scan = Xscan.create ctx ~path_len ~contexts:(fun () -> of_list sorted) in
      let top = chain (fun () -> Xscan.next scan) in
      (Xassembly.create ctx ~path_len ~xschedule:None ~dslash top, None, Some scan, None)
    | Plan.Io_index { resolve } ->
      let can_index =
        Xindex.usable store ~path ~resolve
        && match contexts with [ c ] -> Node_id.equal c (Store.root store) | _ -> false
      in
      if can_index then begin
        let index = Xindex.create ctx ~path ~resolve ~contexts:(fun () -> of_list contexts) in
        let top = chain (fun () -> Xindex.next index) in
        ( Xassembly.create ctx ~path_len ~xschedule:None ~xindex:index ~dslash:false top,
          None,
          None,
          Some index )
      end
      else
        (* Missing or stale partition — the entry lists no longer
           describe the document — or non-root contexts, which the
           partition's root-anchored classes cannot seed. Degrade to
           the speculative schedule shape: same results, no index
           counters. *)
        schedule_pipeline true)

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
  check_plan "Exec.run" path plan;
  let contexts = match contexts with Some c -> c | None -> [ Store.root store ] in
  let ctx = Context.create ~config store in
  ctx.Context.trace <- trace;
  let buffer = Store.buffer store in
  (* The eviction-policy knob travels with the config: knob-off runs put
     the pool back on the historical exact LRU before the first fix. *)
  Buffer_manager.set_scan_resistant buffer config.Context.scan_resistant;
  let snap = snapshot ~cold buffer [ store ] in

  (* The repeat-traffic front door: root-context statements are answered
     from the result cache before any planning or I/O happens. Only the
     root context is cacheable — that is what repeated statements are —
     and the stamp check inside [Result_cache.find] guarantees an
     updated store never serves a stale answer. *)
  let cache_key =
    if
      config.Context.result_cache
      && (match contexts with [ c ] -> Node_id.equal c (Store.root store) | _ -> false)
    then Some (Path.to_string path)
    else None
  in
  match (match cache_key with Some key -> Result_cache.find store key | None -> None) with
  | Some entry ->
    let m = ctx.Context.counters in
    m.cache_hits <- 1;
    measure ~who:"Exec.run" snap m;
    { nodes = Result_cache.nodes entry; count = Result_cache.count entry; metrics = m }
  | None ->

  (* While a cacheable run executes, record the clusters it reads: the
     footprint makes the installed entry survive writes to other
     clusters (see {!Result_cache}). The log nests — the previous one
     (a workload lane's, typically) is restored afterwards. *)
  let touched =
    match cache_key with Some _ -> Some (Hashtbl.create 32) | None -> None
  in
  let saved_log = match touched with Some _ -> Store.swap_touch_log store touched | None -> None in
  let next, xschedule, xscan, xindex = pipeline ctx store path plan contexts in
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
      drain next;
      false
    with Buffer_manager.Buffer_full when Context.fallback ctx ->
      (* After a fallback the XSteps re-navigate globally, which needs a
         free buffer frame — but the I/O operator still pins its current
         cluster, so a near-minimal buffer can wedge. Tear the pipeline
         down (releasing that pin and cancelling its I/O) and recompute
         the whole query with the simple method, as the paper's fallback
         prescribes. *)
      Option.iter Xschedule.abandon xschedule;
      Option.iter Xscan.abandon xscan;
      Option.iter Xindex.abandon xindex;
      Vec.clear out;
      drain (let p, _, _, _ = pipeline ctx store path Plan.simple contexts in p);
      true
  in
  (match touched with Some _ -> ignore (Store.swap_touch_log store saved_log) | None -> ());

  let c = ctx.Context.counters in
  measure ~who:"Exec.run" snap c;

  (* Final duplicate elimination (reordered plans are already
     duplicate-free through R, but the Simple method needs it, Sec. 5.1)
     and re-established document order (Sec. 5.5) — one dedup pass into
     a flat array, one in-place sort. *)
  let seen = Node_id.Seen.create () in
  let distinct = Vec.create () in
  Vec.iter (fun (i : Store.info) -> if Node_id.Seen.add seen i.id then Vec.push distinct i) out;
  if ordered then
    Vec.sort (fun (a : Store.info) b -> Ordpath.compare a.ordpath b.ordpath) distinct;
  let count = Vec.length distinct in
  let nodes = Vec.to_list distinct in

  (* Cache fill after a miss. Entries always hold document order so a
     hit can serve ordered and unordered callers alike. *)
  (match cache_key with
  | None -> ()
  | Some key ->
    c.cache_misses <- 1;
    let sorted =
      if ordered then nodes
      else
        List.sort (fun (a : Store.info) b -> Ordpath.compare a.ordpath b.ordpath) nodes
    in
    (* Index-seeded runs derive their seeds from the partition, not from
       page reads, so no touch-log footprint can cover a write that
       would change them — install those entries footprint-less (staled
       by any mutation, the conservative pre-footprint rule). *)
    let clusters =
      if c.index_entries > 0 then None
      else
        Option.map
          (fun tbl ->
            let pids = Hashtbl.fold (fun pid () acc -> pid :: acc) tbl [] in
            let a = Array.of_list pids in
            Array.sort compare a;
            a)
          touched
    in
    c.cache_evictions <- Result_cache.add ?clusters store key ~count sorted);

  if config.Context.validate then begin
    (* Result conservation only applies when XAssembly produced the
       final answer — not after a restart, which leaves its counters at
       the aborted attempt's values. *)
    let results =
      match (plan, restarted) with
      | Plan.Reordered _, false -> Some count
      | _ -> None
    in
    Invariant.enforce ?xschedule ?xindex ?results ctx
  end;
  { nodes; count; metrics = c }

let run ?config ?contexts ?trace ?ordered store path plan =
  execute ~cold:false ?config ?contexts ?trace ?ordered store path plan

type stream = {
  next : unit -> Store.info option;
  stream_ctx : Context.t;
  stream_sched : Xschedule.t option;
  stream_index : Xindex.t option;
  stream_abandon : unit -> unit;
}

let prepare ?(config = Context.default_config) ?contexts ?trace store path plan =
  check_plan "Exec.prepare" path plan;
  let contexts = match contexts with Some c -> c | None -> [ Store.root store ] in
  let ctx = Context.create ~config store in
  ctx.Context.trace <- trace;
  Buffer_manager.set_scan_resistant (Store.buffer store) config.Context.scan_resistant;
  let next, xschedule, xscan, xindex = pipeline ctx store path plan contexts in
  {
    next;
    stream_ctx = ctx;
    stream_sched = xschedule;
    stream_index = xindex;
    stream_abandon =
      (fun () ->
        Option.iter Xschedule.abandon xschedule;
        Option.iter Xscan.abandon xscan;
        Option.iter Xindex.abandon xindex);
  }

let stream_next stream = stream.next ()
let stream_fell_back stream = Context.fallback stream.stream_ctx
let stream_abandon stream = stream.stream_abandon ()
let stream_ctx stream = stream.stream_ctx

let stream_demand stream =
  match stream.stream_sched with Some x -> Xschedule.queued_clusters x | None -> []

let stream_scan_window stream = Option.bind stream.stream_sched Xschedule.scan_window

let stream_violations ?results stream =
  Invariant.post_run ?xschedule:stream.stream_sched ?xindex:stream.stream_index ?results
    stream.stream_ctx

let cold_run ?config ?contexts ?trace ?ordered store path plan =
  execute ~cold:true ?config ?contexts ?trace ?ordered store path plan

