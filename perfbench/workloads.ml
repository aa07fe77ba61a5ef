(* The five workloads. Each one generates its inputs, computes the
   reference answers, builds its stores (the timed set-up) and hands the
   run loop in suite.ml a pass function that runs the whole statement mix once, checks
   every answer and reports what it measured. Layers
   are timed from outside, around calls to their public functions;
   counters are read from the public stats around the same calls. *)

module Tree = Xnav_xml.Tree
module Tag = Xnav_xml.Tag
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Import = Xnav_store.Import
module Image = Xnav_store.Image
module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Update = Xnav_store.Update
module Path = Xnav_xpath.Path
module Xpath_parser = Xnav_xpath.Xpath_parser
module Eval_ref = Xnav_xpath.Eval_ref
module Compile = Xnav_core.Compile
module Exec = Xnav_core.Exec
module Context = Xnav_core.Context
module Plan = Xnav_core.Plan
module Result_cache = Xnav_core.Result_cache
module Gen = Xnav_xmark.Gen
module Queries = Xnav_xmark.Queries
module Workload = Xnav_workload.Workload
module Shard = Xnav_workload.Shard

(* --- what a workload hands the run loop -------------------------------------- *)

type setup = { import_s : float; save_s : float; load_s : float }

let setup_total s = s.import_s +. s.save_s +. s.load_s

type pass = {
  stmts : int;  (** Statements answered (engine workloads: jobs). *)
  latencies : float array;
      (** Seconds, one per statement: simulated disk time plus, for serial
          workloads, the statement's measured CPU time. *)
  cpu : float;  (** Measured CPU seconds inside the layers' calls. *)
  sim : float;  (** Simulated disk makespan of the pass. *)
}

(* Sums (and maxima) of layer counters over the measured passes. *)
type bag = (string, float) Hashtbl.t

let get (bag : bag) k = Option.value (Hashtbl.find_opt bag k) ~default:0.0
let add bag k v = Hashtbl.replace bag k (get bag k +. v)
let addi bag k v = add bag k (float_of_int v)
let peak bag k v = Hashtbl.replace bag k (Float.max (get bag k) (float_of_int v))

type tally = { mutable attempted : int; mutable failed : int; mutable first_error : string option }

let tally = { attempted = 0; failed = 0; first_error = None }

let attempt ok what =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    if tally.first_error = None then tally.first_error <- Some (what ())
  end

type prepared = {
  statements : string list;  (** The generated statement list, in submission order. *)
  keyed : bool;
      (** Every pass runs the same statements in the same order, so
          [pass.latencies.(i)] is one statement across passes. *)
  setups : setup list;  (** The timed set-ups (the last one's stores are measured). *)
  pass : first:bool -> bag -> pass;
      (** One run of the whole mix. [first] marks the warm-up pass, which
          also runs the expensive answer checks. *)
  extras : latency:float array -> traced:bool -> (string * float) list;
      (** Workload-specific layer metrics over the passes run so far;
          [latency] is each statement's median over the measured passes.
          With [traced], also the reference runs some of them need. *)
}

type params = { seed : int; smoke : bool; workdir : string; name : string }

(* --- inputs and references --------------------------------------------------- *)

let page_size = 4096

(* The documents are fixed, as in the paper's evaluation: XMark's
   default seed, offset per tenant. Seeded documents alone moved the
   engine workloads' latencies by 10-20 % from seed to seed, so the run
   seed drives what a workload does with them instead: statement order,
   popularity, job orders and writer operations. *)
let generate ?(tenant = 0) ~scale ~fidelity () =
  Gen.generate ~config:{ Gen.scale; fidelity; seed = Gen.default_config.Gen.seed + tenant } ()

let parse text = Path.from_root_element (Xpath_parser.parse text)

(* Every distinct root-to-element label path of [doc] as a child chain,
   then [/site//tag] for every tag below the root element, each with its result
   count taken in the same walk: the document's path summary (Arion et
   al.), in first-occurrence order. *)
let family (doc : Tree.t) =
  let chains = Hashtbl.create 256 and tags = Hashtbl.create 64 in
  let chain_list = ref [] and tag_list = ref [] in
  let bump tbl order key =
    match Hashtbl.find_opt tbl key with
    | Some n -> incr n
    | None ->
      Hashtbl.add tbl key (ref 1);
      order := key :: !order
  in
  let rec walk prefix (n : Tree.t) =
    let p = prefix ^ "/" ^ Tag.to_string n.Tree.tag in
    bump chains chain_list p;
    if n != doc then bump tags tag_list (Tag.to_string n.Tree.tag);
    Array.iter (walk p) n.Tree.children
  in
  walk "" doc;
  let root = Tag.to_string doc.Tree.tag in
  List.rev_map (fun p -> (p, !(Hashtbl.find chains p))) !chain_list
  @ List.rev_map (fun t -> (Printf.sprintf "/%s//%s" root t, !(Hashtbl.find tags t))) !tag_list

(* The summary counts are the references family statements are checked
   against. The reference evaluator needs seconds for a whole family, so
   every run checks a seeded sample of the counts with it. *)
let check_family p doc fam =
  let sample = Array.of_list fam in
  Util.shuffle (Util.rng ~seed:p.seed "family-check") sample;
  Array.iteri
    (fun i (text, n) ->
      if i < 16 then begin
        let e = Eval_ref.count doc (parse text) in
        attempt (e = n) (fun () ->
            Printf.sprintf "path summary counts %d for %s, the reference evaluator %d" n text e)
      end)
    sample;
  fam

(* The paper's statements: the 5 paths of q6', q7 and q15. *)
let paper_paths =
  List.concat_map (fun (q : Queries.t) -> List.map Path.to_string q.Queries.paths) Queries.all

let with_reference doc texts = List.map (fun t -> (t, Eval_ref.count doc (parse t))) texts

(* [n] statements covering [items] as evenly as possible — each one
   [n / k] times, the remainder a seeded sample without repetition — in
   a seeded order, so every seed runs the same mix of statements. *)
let balanced r items n =
  let a = Array.of_list items in
  let k = Array.length a in
  let full = n / k * k in
  let extra = Array.copy a in
  Util.shuffle r extra;
  let out = Array.init n (fun i -> if i < full then a.(i mod k) else extra.(i - full)) in
  Util.shuffle r out;
  Array.to_list out

(* --- set-up ---------------------------------------------------------------------- *)

(* One set-up: the CLI's [import] -> [--image] path. Each document is
   imported onto its own disk, saved to an image file and loaded back
   with a cold pool of [capacity] frames. Returns the loaded stores with
   their imports and image files, and the three layer times. *)
let setup_once p ~capacity ~keep docs =
  let import_s = ref 0.0 and save_s = ref 0.0 and load_s = ref 0.0 in
  let built =
    List.mapi
      (fun i doc ->
        let disk = Disk.create ~config:{ Disk.default_config with Disk.page_size } () in
        let import, dt = Util.timed (fun () -> Import.run disk doc) in
        import_s := !import_s +. dt;
        let store = Store.attach (Buffer_manager.create ~capacity:1 disk) import in
        let file = Filename.concat p.workdir (Printf.sprintf "%s-%d.img" p.name i) in
        let (), dt = Util.timed (fun () -> Image.save file [ store ]) in
        save_s := !save_s +. dt;
        let loaded, dt = Util.timed (fun () -> Image.load ~capacity file) in
        load_s := !load_s +. dt;
        if not keep then Sys.remove file;
        match loaded with
        | [ s ] -> (s, import, file)
        | _ -> failwith "image did not round-trip one store")
      docs
  in
  (built, { import_s = !import_s; save_s = !save_s; load_s = !load_s })

(* Repeated set-ups; the run reports their median. Their number is
   fixed, not fitted to a time budget, so every run of a seed does the
   same work and leaves the heap the same. The first few run slower while
   the process's heap and the page cache grow, up to twice as long on a
   small document, so the first three are not counted. Each starts from a
   collected heap, so one set-up's garbage neither slows the next nor
   inflates the heap peak. *)
let repeat_setup p f =
  let warm_up, counted = if p.smoke then (0, 3) else (3, 8) in
  let rec go n last times =
    if n = 0 then (Option.get last, List.filteri (fun i _ -> i >= warm_up) (List.rev times))
    else begin
      Gc.full_major ();
      let v, t = f () in
      go (n - 1) (Some v) (t :: times)
    end
  in
  go (warm_up + counted) None []

let setups p ~capacity ?(keep = false) docs =
  repeat_setup p (fun () -> setup_once p ~capacity ~keep docs)

(* --- shared pieces of the passes --------------------------------------------- *)

let next_stmt = ref 0

let stmt_id () =
  incr next_stmt;
  !next_stmt

(* Parse and plan one statement, each inside its own span. *)
let front_end store ~choice text =
  let path = Trace.with_span "xpath_parser.parse" (fun () -> parse text) in
  Trace.with_span "compile.plan" (fun () -> Compile.plan_for ~choice store path)

let sorted_ids nodes =
  List.sort Node_id.compare (List.map (fun (i : Store.info) -> i.Store.id) nodes)

let buffer_of store = Store.buffer store

(* Storage-layer counters of one stack after a cold engine run (the run
   reset them, so they are the run's own). *)
let add_storage bag store =
  let b = Buffer_manager.stats (buffer_of store)
  and d = Disk.stats (Buffer_manager.disk (buffer_of store)) in
  addi bag "buffer.lookups" b.Buffer_manager.lookups;
  addi bag "buffer.hits" b.Buffer_manager.hits;
  addi bag "buffer.misses" b.Buffer_manager.misses;
  addi bag "buffer.async" b.Buffer_manager.async_reads;
  addi bag "buffer.evictions" b.Buffer_manager.evictions;
  addi bag "buffer.scan_resist_hits" b.Buffer_manager.scan_resist_hits;
  addi bag "disk.reads" d.Disk.reads;
  addi bag "disk.writes" d.Disk.writes;
  addi bag "disk.random" d.Disk.random_reads;
  addi bag "disk.seek" d.Disk.seek_distance;
  addi bag "disk.batches" d.Disk.batched_reads;
  addi bag "disk.batch_pages" d.Disk.batch_pages;
  addi bag "disk.coalesced" d.Disk.coalesce_runs

let cache_delta bag (before : Result_cache.stats) =
  let a = Result_cache.stats () in
  addi bag "cache.hits" (a.Result_cache.hits - before.Result_cache.hits);
  addi bag "cache.lookups"
    (a.Result_cache.hits + a.Result_cache.misses - before.Result_cache.hits
   - before.Result_cache.misses);
  addi bag "cache.evictions" (a.Result_cache.evictions - before.Result_cache.evictions);
  addi bag "cache.stales" (a.Result_cache.stales - before.Result_cache.stales)

(* --- serial workloads: paper_cold and warm_family ----------------------------- *)

type stmt = { doc : int; text : string; plan : string; choice : Compile.choice; expected : int }

let choices =
  [
    ("auto", Compile.Auto);
    ("simple", Compile.Force_simple);
    ("xschedule", Compile.Force_schedule);
    ("xscan", Compile.Force_scan);
    ("xindex", Compile.Force_index);
  ]

(* Geometric mean over statements of Auto's latency over the best forced
   plan's, from each pair's median latency. *)
let auto_regret stmts latency =
  let groups = Hashtbl.create 64 in
  Array.iteri
    (fun i s ->
      let prev = Option.value (Hashtbl.find_opt groups (s.doc, s.text)) ~default:[] in
      Hashtbl.replace groups (s.doc, s.text) ((s.plan, latency.(i)) :: prev))
    stmts;
  Hashtbl.fold
    (fun _ plans acc ->
      let forced = List.filter (fun (plan, _) -> plan <> "auto") plans in
      match (List.assoc_opt "auto" plans, forced) with
      | Some auto, _ :: _ ->
        let best = List.fold_left (fun b (_, t) -> Float.min b t) infinity forced in
        if best > 0.0 then (auto /. best) :: acc else acc
      | _ -> acc)
    groups []
  |> Util.geomean

(* Every (statement, plan) pair of [docs] — each document with its
   statements and their reference counts — run one after another on one
   thread, cold or warm. *)
let serial p ~cold ~capacity ~plans docs =
  let stmts =
    List.concat
      (List.mapi
         (fun doc (_, texts) ->
           List.concat_map
             (fun (text, expected) ->
               List.map
                 (fun plan -> { doc; text; plan; choice = List.assoc plan choices; expected })
                 plans)
             texts)
         docs)
    |> Array.of_list
  in
  Util.shuffle (Util.rng ~seed:p.seed "order") stmts;
  let built, setups = setups p ~capacity (List.map fst docs) in
  let stores = Array.of_list (List.map (fun (s, _, _) -> s) built) in
  let config = Context.default_config in
  let pass ~first bag =
    let latencies = Array.make (Array.length stmts) 0.0 and cpu = ref 0.0 and sim = ref 0.0 in
    let ids = Hashtbl.create 64 in
    Array.iteri
      (fun i s ->
        let store = stores.(s.doc) in
        let evictions_before = (Buffer_manager.stats (buffer_of store)).Buffer_manager.evictions in
        let t0 = Util.cpu () in
        match
          Trace.with_span ~stmt:(stmt_id ()) "stmt" (fun () ->
              let path, plan = front_end store ~choice:s.choice s.text in
              let run = if cold then Exec.cold_run else Exec.run in
              Trace.with_span "exec.run" (fun () -> run ~config ~ordered:false store path plan))
        with
        | r ->
          let dt = Util.cpu () -. t0 in
          let m = r.Exec.metrics in
          latencies.(i) <- m.Exec.io_time +. dt;
          cpu := !cpu +. dt;
          sim := !sim +. m.Exec.io_time;
          attempt (r.Exec.count = s.expected) (fun () ->
              Printf.sprintf "%s [%s]: %d results, reference %d" s.text s.plan r.Exec.count
                s.expected);
          if first then begin
            (* Every plan of one statement must return the same node set. *)
            let got = sorted_ids r.Exec.nodes in
            match Hashtbl.find_opt ids (s.doc, s.text) with
            | None -> Hashtbl.add ids (s.doc, s.text) (s.plan, got)
            | Some (plan0, ids0) ->
              attempt (List.equal Node_id.equal ids0 got) (fun () ->
                  Printf.sprintf "%s: plans %s and %s return different node sets" s.text plan0
                    s.plan)
          end;
          let evictions = (Buffer_manager.stats (buffer_of store)).Buffer_manager.evictions in
          addi bag "stmts" 1;
          addi bag "results" r.Exec.count;
          addi bag "exec.instances" m.Exec.instances;
          addi bag "exec.fused_transitions" m.Exec.fused_transitions;
          addi bag "exec.specs_stored" m.Exec.specs_stored;
          addi bag "exec.specs_resolved" m.Exec.specs_resolved;
          peak bag "exec.s_peak" m.Exec.s_peak;
          peak bag "exec.q_peak" m.Exec.q_peak;
          addi bag "exec.fallbacks" (if m.Exec.fell_back then 1 else 0);
          addi bag "store.swizzle_hits" m.Exec.swizzle_hits;
          addi bag "store.swizzle_misses" m.Exec.swizzle_misses;
          addi bag "store.index_entries" m.Exec.index_entries;
          addi bag "buffer.lookups" m.Exec.buffer_lookups;
          addi bag "buffer.hits" m.Exec.buffer_hits;
          addi bag "buffer.misses" m.Exec.buffer_misses;
          addi bag "buffer.async" m.Exec.async_reads;
          (* A cold run resets the pool's statistics first. *)
          addi bag "buffer.evictions" (if cold then evictions else evictions - evictions_before);
          addi bag "buffer.scan_resist_hits" m.Exec.scan_resist_hits;
          addi bag "disk.reads" m.Exec.page_reads;
          addi bag "disk.random" m.Exec.random_reads;
          addi bag "disk.seek" m.Exec.seek_distance;
          addi bag "disk.batches" m.Exec.batched_reads;
          addi bag "disk.batch_pages" m.Exec.batch_pages;
          addi bag "disk.coalesced" m.Exec.coalesce_runs;
          add bag "disk.busy" m.Exec.io_time
        | exception e ->
          latencies.(i) <- Util.cpu () -. t0;
          attempt false (fun () ->
              Printf.sprintf "%s [%s] raised %s" s.text s.plan (Printexc.to_string e)))
      stmts;
    { stmts = Array.length stmts; latencies; cpu = !cpu; sim = !sim }
  in
  {
    statements =
      Array.to_list (Array.map (fun s -> Printf.sprintf "doc%d %s %s" s.doc s.plan s.text) stmts);
    keyed = true;
    setups;
    pass;
    extras =
      (fun ~latency ~traced:_ -> [ ("compile.auto_regret", auto_regret stmts latency) ]);
  }

(* The paper's own experiment (Sec. 6): XMark sf 0.5 and 1.0 (about 950
   and 1,899 4-KiB pages) over a 256-frame pool, every statement started
   cold, the 5 paths of q6'/q7/q15 under Auto and each forced plan —
   forced, because on a fresh partition Auto never picks XSchedule or
   Simple. I/O bound: it exercises the disk model, I/O scheduler
   batching, buffer eviction and every operator, and bypasses the result
   cache and the engines. *)
let paper_cold p =
  let fidelity = if p.smoke then 0.005 else 0.05 in
  let docs =
    List.map
      (fun scale ->
        let doc = generate ~scale ~fidelity () in
        (doc, with_reference doc paper_paths))
      [ 0.5; 1.0 ]
  in
  serial p ~cold:true ~capacity:256 ~plans:[ "auto"; "simple"; "xschedule"; "xscan"; "xindex" ] docs

(* The CPU-bound case: a small document (sf 0.1, about 190 pages) that
   fits its 1,000-frame pool, queried warm with its whole statement
   family under Auto and each navigational plan, result cache off. After
   the warm-up pass no disk read is left, so the time is parsing,
   planning, operators, record decoding and buffer lookups. *)
let warm_family p =
  let fidelity = if p.smoke then 0.01 else 0.05 in
  let doc = generate ~scale:0.1 ~fidelity () in
  serial p ~cold:false ~capacity:1000 ~plans:[ "auto"; "simple"; "xschedule"; "xscan" ]
    [ (doc, check_family p doc (family doc)) ]

(* --- engine workloads ------------------------------------------------------- *)

(* A client job as text; [stmt] is its trace statement id in the current
   pass. *)
type job_text = {
  label : string;
  text : string;
  choice : Compile.choice;
  expected : int;
  stmt : int;
}

(* Deal [items] round-robin to [clients] closed-loop clients. *)
let deal ~clients items =
  let queues = Array.make clients [] in
  List.iteri (fun i it -> queues.(i mod clients) <- it :: queues.(i mod clients)) items;
  Array.mapi
    (fun c q ->
      List.mapi
        (fun i (text, choice, expected) ->
          { label = Printf.sprintf "c%d.%d" c i; text; choice; expected; stmt = -1 })
        (List.rev q))
    queues

(* Engine workloads draw a fresh job order for every pass (from the seed
   and the pass number), so a run measures several orders of the same
   statements rather than one. *)
let order_rng p i = Util.rng ~seed:p.seed (Printf.sprintf "%s-order-%d" p.name i)

let queue_lines queues =
  Array.to_list queues
  |> List.concat_map (List.map (fun j -> Printf.sprintf "%s %s" j.label j.text))

let with_stmt_ids queues = Array.map (List.map (fun j -> { j with stmt = stmt_id () })) queues

let index_jobs queues =
  let by_label = Hashtbl.create 1024 in
  Array.iter (List.iter (fun j -> Hashtbl.replace by_label j.label j)) queues;
  by_label

(* Parse and plan every job, as the CLI front end does per statement. *)
let specs_of store_of queues =
  Array.mapi
    (fun c ->
      List.map (fun j ->
          Trace.with_span ~stmt:j.stmt "stmt" (fun () ->
              let path, plan = front_end (store_of c) ~choice:j.choice j.text in
              { Workload.label = j.label; path; plan; timeout = None; ops = [] })))
    queues

(* A job's phases on the engine's simulated clock. *)
let job_spans engine_span stmt (j : Workload.job) =
  let id = Trace.sim ~parent:engine_span ~stmt "job" j.Workload.submitted j.Workload.finished in
  ignore (Trace.sim ~parent:id ~stmt "admission_wait" j.Workload.submitted j.Workload.started);
  ignore (Trace.sim ~parent:id ~stmt "service" j.Workload.started j.Workload.finished)

let add_jobs bag waits (jobs : Workload.job list) =
  addi bag "workload.jobs" (List.length jobs);
  List.iter
    (fun (j : Workload.job) ->
      addi bag "workload.yields" j.Workload.yields;
      addi bag "workload.boosts" j.Workload.boosts;
      addi bag "workload.served" j.Workload.served_ticks;
      addi bag "workload.starved" j.Workload.starved_ticks;
      addi bag "workload.recovered" (if j.Workload.status = Workload.Recovered then 1 else 0);
      waits := (j.Workload.started -. j.Workload.submitted) :: !waits)
    jobs

(* Serial cold page reads of every job's statement over the engine's
   page reads: how much I/O the engine shared across clients. *)
let sharing_factor store queues ~concurrent_reads =
  let memo = Hashtbl.create 64 in
  let serial =
    Array.fold_left
      (List.fold_left (fun acc j ->
           let reads =
             match Hashtbl.find_opt memo j.text with
             | Some n -> n
             | None ->
               let path, plan = Compile.plan_for ~choice:j.choice store (parse j.text) in
               let r = Exec.cold_run ~ordered:false store path plan in
               let n = r.Exec.metrics.Exec.page_reads in
               Hashtbl.add memo j.text n;
               n
           in
           acc + reads))
      0 queues
  in
  Util.ratio (float_of_int serial) (float_of_int concurrent_reads)

(* A job's simulated submit -> finish time. CPU spent inside the engine
   cannot be attributed to a job from outside, so the run loop adds an
   even share of the measured CPU time to every job. *)
let job_latencies (jobs : Workload.job list) =
  Array.of_list (List.map (fun (j : Workload.job) -> j.Workload.latency) jobs)

(* One pass of the single-pool engine: reader [queues] (each job checked
   by [check]) beside the [writers]' queues. *)
let engine_pass ~config ~store ~queues ~writers ~check bag waits =
  Result_cache.clear ();
  let queues = with_stmt_ids queues in
  let by_label = index_jobs queues in
  let readers = Hashtbl.length by_label in
  let expected_jobs = readers + List.length (List.concat writers) in
  let t0 = Util.cpu () in
  let specs = Array.append (specs_of (fun _ -> store) queues) (Array.of_list writers) in
  let cache_before = Result_cache.stats () in
  let swizzle_hits, swizzle_misses = Store.swizzle_stats store in
  let engine_span, res =
    Trace.with_span "workload.run_clients" (fun () ->
        (Trace.current (), Workload.run_clients ~config ~ordered:false ~cold:true store specs))
  in
  let cpu = Util.cpu () -. t0 in
  let jobs = List.length res.Workload.jobs in
  attempt (jobs = expected_jobs) (fun () ->
      Printf.sprintf "%d of %d jobs came back" jobs expected_jobs);
  List.iter
    (fun v -> attempt false (fun () -> "invariant violation: " ^ v))
    res.Workload.violations;
  let pinned = Buffer_manager.pinned_count (buffer_of store) in
  attempt (pinned = 0) (fun () -> Printf.sprintf "%d frames left pinned" pinned);
  List.iter
    (fun (j : Workload.job) ->
      attempt (j.Workload.status <> Workload.Timed_out) (fun () ->
          j.Workload.job_label ^ " timed out");
      match Hashtbl.find_opt by_label j.Workload.job_label with
      | Some jt ->
        check jt j;
        job_spans engine_span jt.stmt j
      | None -> job_spans engine_span (-1) j)
    res.Workload.jobs;
  cache_delta bag cache_before;
  let h, m = Store.swizzle_stats store in
  addi bag "store.swizzle_hits" (h - swizzle_hits);
  addi bag "store.swizzle_misses" (m - swizzle_misses);
  add_storage bag store;
  add_jobs bag waits res.Workload.jobs;
  addi bag "stmts" jobs;
  addi bag "workload.readers" readers;
  addi bag "workload.turns" res.Workload.turns;
  addi bag "workload.shared" res.Workload.shared_jobs;
  addi bag "workload.commits" res.Workload.writer_commits;
  addi bag "workload.latch_waits" res.Workload.latch_waits;
  addi bag "workload.snapshot_retries" res.Workload.snapshot_retries;
  peak bag "workload.max_concurrent" res.Workload.max_concurrent;
  add bag "disk.busy" res.Workload.io_time;
  let latencies = job_latencies res.Workload.jobs in
  (res, { stmts = jobs; latencies; cpu; sim = res.Workload.io_time })

(* Exact zipf(s) frequencies of [n] draws over [k] ranks (largest
   remainder), so every seed runs the same popularity profile. *)
let zipf_counts ~s ~n k =
  let raw = Array.init k (fun r -> 1.0 /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 raw in
  let raw = Array.map (fun w -> float_of_int n *. w /. total) raw in
  let counts = Array.map int_of_float raw in
  let order = Array.init k Fun.id in
  let frac r = raw.(r) -. Float.of_int counts.(r) in
  Array.stable_sort (fun a b -> Float.compare (frac b) (frac a)) order;
  for i = 0 to n - Array.fold_left ( + ) 0 counts - 1 do
    counts.(order.(i)) <- counts.(order.(i)) + 1
  done;
  counts

(* Popularity ranks such that every rank band holds the same mix of
   cheap and expensive statements: sort by result count, cut into
   [bands], shuffle each band, then hand out ranks round-robin over the
   bands in a fresh seeded order each round. The seed decides which
   statement is hot; the cost profile of the hot set stays the same. *)
let stratified r fam ~bands =
  let a = Array.of_list fam in
  Array.stable_sort (fun (_, x) (_, y) -> compare x y) a;
  let n = Array.length a in
  let band b = Array.sub a (b * n / bands) (((b + 1) * n / bands) - (b * n / bands)) in
  let groups = Array.init bands band in
  Array.iter (Util.shuffle r) groups;
  let next = Array.make bands 0 and order = Array.init bands Fun.id in
  let out = ref [] in
  for _ = 1 to (n / bands) + 1 do
    Util.shuffle r order;
    Array.iter
      (fun b ->
        if next.(b) < Array.length groups.(b) then begin
          out := groups.(b).(next.(b)) :: !out;
          next.(b) <- next.(b) + 1
        end)
      order
  done;
  Array.of_list (List.rev !out)

(* The repeat-traffic front door: 8 closed-loop clients x 256 jobs with
   zipf(0.9) popularity over the sf 0.5 family (about 460 statements) on
   a 256-frame pool, XSchedule plans, result cache on at its default 256
   entries. Every statement is drawn at least once and the cache holds
   barely half of them, so it evicts; repeats are cache hits or are
   deduped into in-flight identical scans. With 2,048 jobs most are
   hits, so the median job is a hit. *)
let zipf_repeat p =
  let clients, per_client, scale, fidelity =
    if p.smoke then (4, 16, 0.1, 0.01) else (8, 256, 0.5, 0.05)
  in
  let doc = generate ~scale ~fidelity () in
  let fam = check_family p doc (family doc) in
  let ranked = stratified (Util.rng ~seed:p.seed "zipf") fam ~bands:8 in
  let counts = zipf_counts ~s:0.9 ~n:(clients * per_client) (Array.length ranked) in
  let draws =
    Array.to_list ranked
    |> List.mapi (fun rank (text, expected) ->
           List.init counts.(rank) (fun _ -> (text, Compile.Force_schedule, expected)))
    |> List.concat |> Array.of_list
  in
  let queues_for i =
    let a = Array.copy draws in
    Util.shuffle (order_rng p i) a;
    deal ~clients (Array.to_list a)
  in
  let built, setups = setups p ~capacity:256 [ doc ] in
  let store, _, _ = List.hd built in
  let config = Context.set_result_cache true Context.default_config in
  let check jt (j : Workload.job) =
    attempt (j.Workload.count = jt.expected) (fun () ->
        Printf.sprintf "%s: %d results, reference %d" jt.text j.Workload.count jt.expected)
  in
  let waits = ref [] and last_reads = ref 0 and passes = ref 0 in
  let pass ~first:_ bag =
    let queues = queues_for !passes in
    incr passes;
    let res, pass = engine_pass ~config ~store ~queues ~writers:[] ~check bag waits in
    last_reads := res.Workload.page_reads;
    pass
  in
  {
    statements = queue_lines (queues_for 0);
    keyed = false;
    setups;
    pass;
    extras =
      (fun ~latency:_ ~traced ->
        ("workload.admission_wait_p99_s", Util.percentile !waits 99.0)
        ::
        (if traced then
           [
             ( "workload.sharing_factor",
               sharing_factor store (queues_for (!passes - 1)) ~concurrent_reads:!last_reads );
           ]
         else []));
  }

(* Readers beside writers on one engine: 8 reader clients sharing every
   statement of the sf 0.25 family twice (about 950 jobs), on a
   128-frame pool with the result cache on, and 2 writer clients
   committing 64 inserts/deletes each. Every pass reloads the image, so
   each starts from the same document. It exercises writer latches,
   snapshot restarts, cluster-granular cache invalidation and
   cross-query sharing. *)
let writers_mixed p =
  let readers, writers, jobs_per_writer, ops_per_job, scale, fidelity =
    if p.smoke then (3, 1, 2, 4, 0.2, 0.01) else (8, 2, 8, 8, 0.25, 0.05)
  in
  let capacity = 128 in
  let doc = generate ~scale ~fidelity () in
  let fam = List.map fst (family doc) in
  let queues_for i =
    balanced (order_rng p i) fam (2 * List.length fam)
    |> List.map (fun text -> (text, Compile.Force_schedule, -1))
    |> deal ~clients:readers
  in
  let built, setups = setups p ~capacity ~keep:true [ doc ] in
  let _, import, image = List.hd built in
  (* Deletes take small subtrees (at most 4 nodes), so no seed removes a
     large part of the document and the mix stays comparable across
     seeds. *)
  let r = Util.rng ~seed:p.seed "writers" in
  let nodes = Array.of_list (Tree.nodes doc) and ids = import.Import.node_ids in
  let tags = Array.of_list (List.map fst (Tree.tag_counts doc)) in
  let rec victim () =
    let i = 1 + Util.int r (Array.length nodes - 1) in
    if Tree.size nodes.(i) <= 4 then ids.(i) else victim ()
  in
  let op () =
    if Util.int r 2 = 0 then Workload.Delete_subtree (victim ())
    else
      Workload.Insert_child
        {
          parent = ids.(Util.int r (Array.length ids));
          tag = tags.(Util.int r (Array.length tags));
        }
  in
  let writer_queues =
    List.init writers (fun w ->
        List.init jobs_per_writer (fun k ->
            {
              Workload.label = Printf.sprintf "w%d.%d" w k;
              path = [ Path.descendant_or_self_any ];
              plan = Plan.simple;
              timeout = None;
              ops = List.init ops_per_job (fun _ -> op ());
            }))
  in
  let config = Context.set_result_cache true Context.default_config in
  let load () =
    match Image.load ~capacity image with
    | [ s ] -> s
    | _ -> failwith "image did not round-trip one store"
  in
  (* Reader answers depend on which commits preceded them, so they are
     checked against a serial replay of the commit log, up to the job's
     finish point, on a reloaded twin: 128 seeded reader jobs on the
     first pass, 16 on every later one. *)
  let replay_check ~n ~pass_no (res : Workload.result) by_label =
    let twin = load () in
    let sample =
      Array.of_list
        (List.filter
           (fun (j : Workload.job) -> Hashtbl.mem by_label j.Workload.job_label)
           res.Workload.jobs)
    in
    Util.shuffle (Util.rng ~seed:p.seed (Printf.sprintf "replay-%d" pass_no)) sample;
    let log = ref res.Workload.commit_log and applied = ref 0 in
    let advance_to k =
      while !applied < k do
        (match !log with
        | Workload.Insert_child { parent; tag } :: rest ->
          ignore (Update.insert_element twin ~parent tag);
          log := rest
        | Workload.Delete_subtree v :: rest ->
          ignore (Update.delete_subtree twin v);
          log := rest
        | [] -> failwith "commit log shorter than a finish point");
        incr applied
      done
    in
    Array.sub sample 0 (min n (Array.length sample))
    |> Array.to_list
    |> List.sort (fun (a : Workload.job) b ->
           compare a.Workload.finish_commit b.Workload.finish_commit)
    |> List.iter (fun (j : Workload.job) ->
           let text = (Hashtbl.find by_label j.Workload.job_label).text in
           match
             advance_to j.Workload.finish_commit;
             sorted_ids (Exec.run ~ordered:false twin (parse text) Plan.simple).Exec.nodes
           with
           | expected ->
             attempt (List.equal Node_id.equal expected (sorted_ids j.Workload.nodes)) (fun () ->
                 Printf.sprintf "%s at commit %d differs from the serial replay" text
                   j.Workload.finish_commit)
           | exception e ->
             attempt false (fun () ->
                 Printf.sprintf "replay of %s raised %s" text (Printexc.to_string e)))
  in
  let waits = ref [] and last_reads = ref 0 and passes = ref 0 in
  let pass ~first bag =
    let queues = queues_for !passes in
    let store = load () in
    let res, pass =
      engine_pass ~config ~store ~queues ~writers:writer_queues ~check:(fun _ _ -> ()) bag waits
    in
    attempt (res.Workload.writer_commits > 0) (fun () -> "no writer op committed");
    replay_check ~n:(if first then 128 else 16) ~pass_no:!passes res (index_jobs queues);
    incr passes;
    last_reads := res.Workload.page_reads;
    pass
  in
  {
    statements =
      queue_lines (queues_for 0)
      @ List.concat_map
          (List.map (fun (s : Workload.spec) ->
               s.Workload.label
               :: List.map
                    (function
                      | Workload.Delete_subtree v -> "delete " ^ Node_id.to_string v
                      | Workload.Insert_child { parent; tag } ->
                        Printf.sprintf "insert %s under %s" (Tag.to_string tag)
                          (Node_id.to_string parent))
                    s.Workload.ops
               |> String.concat " "))
          writer_queues;
    keyed = false;
    setups;
    pass;
    extras =
      (fun ~latency:_ ~traced ->
        ("workload.admission_wait_p99_s", Util.percentile !waits 99.0)
        ::
        (if traced then
           [
             ( "workload.sharing_factor",
               sharing_factor (load ()) (queues_for (!passes - 1)) ~concurrent_reads:!last_reads );
           ]
         else []));
  }

(* Many small tenants on a few shards: 16 tenant documents on 4 shards,
   32 clients x 30 jobs, each client pinned to a home tenant and running
   the q6'/q7/q15 paths under XSchedule plus the XScan sweep that
   antagonises co-located tenants, 5 times each; 2Q on, result cache
   off. It exercises the shard engine's two-level scheduler and the 2Q
   pool. *)
let tenant_name i = Printf.sprintf "tenant-%02d" i

let sharded_tenants p =
  let tenants, shards, clients, per_client, fidelity =
    if p.smoke then (4, 2, 8, 6, 0.002) else (16, 4, 32, 30, 0.005)
  in
  let capacity = 256 in
  let docs =
    List.init tenants (fun i -> (tenant_name i, generate ~tenant:i ~scale:1.0 ~fidelity ()))
  in
  let refs = List.map (fun (name, doc) -> (name, with_reference doc paper_paths)) docs in
  let mix =
    List.map (fun text -> (text, Compile.Force_schedule)) paper_paths
    @ [ (List.hd paper_paths, Compile.Force_scan) ]
  in
  let home c = tenant_name (c mod tenants) in
  let queues_for i =
    let r = order_rng p i in
    Array.init clients (fun c ->
        List.mapi
          (fun k (text, choice) ->
            let expected = List.assoc text (List.assoc (home c) refs) in
            { label = Printf.sprintf "c%d.%d" c k; text; choice; expected; stmt = -1 })
          (balanced r mix per_client))
  in
  (* Set-up builds the topology and persists it: Shard.create imports
     every tenant onto its shard, then each shard's tenants are saved to
     an image and loaded back. *)
  let setup_once () =
    let t, import_s = Util.timed (fun () -> Shard.create ~capacity ~page_size ~shards docs) in
    let save_s = ref 0.0 and load_s = ref 0.0 in
    for k = 0 to shards - 1 do
      let on_shard =
        List.filter_map
          (fun (name, _) -> if Shard.shard_of t name = k then Some (Shard.store t name) else None)
          docs
      in
      if on_shard <> [] then begin
        let file = Filename.concat p.workdir (Printf.sprintf "%s-%d.img" p.name k) in
        let (), dt = Util.timed (fun () -> Image.save file on_shard) in
        save_s := !save_s +. dt;
        let loaded, dt = Util.timed (fun () -> Image.load ~capacity file) in
        load_s := !load_s +. dt;
        Sys.remove file;
        List.iter2
          (fun a b ->
            attempt (Store.node_count a = Store.node_count b) (fun () ->
                "a shard image did not round-trip its tenants"))
          on_shard loaded
      end
    done;
    (t, { import_s; save_s = !save_s; load_s = !load_s })
  in
  let t, setups = repeat_setup p setup_once in
  let config = Context.set_scan_resistant true Context.default_config in
  let tjobs t queues =
    specs_of (fun c -> Shard.store t (home c)) queues
    |> Array.mapi (fun c -> List.map (fun spec -> { Shard.tenant = home c; spec }))
  in
  let busiest (res : Shard.result) =
    List.fold_left
      (fun a (s : Shard.shard_stat) -> Float.max a s.Shard.io_time)
      0.0 res.Shard.shard_stats
  in
  (* One tenant per shard, to read each shard's storage counters. *)
  let shard_stores =
    List.filter_map
      (fun k -> List.find_opt (fun (n, _) -> Shard.shard_of t n = k) docs)
      (List.init shards Fun.id)
    |> List.map (fun (n, _) -> Shard.store t n)
  in
  let waits = ref [] and spreads = ref [] and shares = ref [] and makespans = ref [] in
  let passes = ref 0 in
  let pass ~first:_ bag =
    let queues = with_stmt_ids (queues_for !passes) in
    incr passes;
    let by_label = index_jobs queues in
    let t0 = Util.cpu () in
    let specs = tjobs t queues in
    let engine_span, res =
      Trace.with_span "shard.run_clients" (fun () ->
          (Trace.current (), Shard.run_clients ~config ~ordered:false ~cold:true t specs))
    in
    let cpu = Util.cpu () -. t0 in
    let jobs = List.length res.Shard.jobs in
    attempt (jobs = clients * per_client) (fun () ->
        Printf.sprintf "%d of %d jobs came back" jobs (clients * per_client));
    List.iter (fun v -> attempt false (fun () -> "invariant violation: " ^ v)) res.Shard.violations;
    List.iter
      (fun (_, (j : Workload.job)) ->
        let jt = Hashtbl.find by_label j.Workload.job_label in
        attempt
          (j.Workload.status <> Workload.Timed_out && j.Workload.count = jt.expected)
          (fun () ->
            Printf.sprintf "%s %s: %d results, reference %d" jt.label jt.text j.Workload.count
              jt.expected);
        job_spans engine_span jt.stmt j)
      res.Shard.jobs;
    List.iter
      (fun store ->
        let pinned = Buffer_manager.pinned_count (buffer_of store) in
        attempt (pinned = 0) (fun () -> Printf.sprintf "%d frames left pinned on a shard" pinned);
        add_storage bag store)
      shard_stores;
    add_jobs bag waits (List.map snd res.Shard.jobs);
    addi bag "stmts" jobs;
    addi bag "workload.turns" res.Shard.turns;
    addi bag "shard.rebalance_moves" res.Shard.rebalance_moves;
    peak bag "workload.max_concurrent" res.Shard.max_concurrent;
    add bag "disk.busy" res.Shard.io_time;
    let makespan = busiest res in
    makespans := makespan :: !makespans;
    shares := Util.ratio makespan res.Shard.io_time :: !shares;
    let p99s =
      List.filter_map
        (fun (ts : Shard.tenant_stat) -> if ts.Shard.jobs > 0 then Some ts.Shard.p99 else None)
        res.Shard.tenant_stats
    in
    spreads := Util.ratio (List.fold_left Float.max 0.0 p99s) (Util.median p99s) :: !spreads;
    { stmts = jobs; latencies = job_latencies (List.map snd res.Shard.jobs); cpu; sim = makespan }
  in
  {
    statements =
      Array.to_list (queues_for 0)
      |> List.mapi (fun c -> List.map (fun j -> Printf.sprintf "%s %s %s" j.label (home c) j.text))
      |> List.concat;
    keyed = false;
    setups;
    pass;
    extras =
      (fun ~latency:_ ~traced ->
        [
          ("workload.admission_wait_p99_s", Util.percentile !waits 99.0);
          ("shard.tenant_p99_spread", Util.median !spreads);
          ("shard.busiest_share", Util.median !shares);
        ]
        @
        if traced then begin
          (* The colocation reference: the same clients with every tenant
             on one shard. *)
          let single = Shard.create ~capacity ~page_size ~shards:1 docs in
          let queues = queues_for (!passes - 1) in
          let specs = tjobs single queues in
          let res = Shard.run_clients ~config ~ordered:false ~cold:true single specs in
          [ ("shard.colocation_speedup", Util.ratio (busiest res) (Util.median !makespans)) ]
        end
        else []);
  }

let all =
  [
    ("paper_cold", paper_cold);
    ("warm_family", warm_family);
    ("zipf_repeat", zipf_repeat);
    ("writers_mixed", writers_mixed);
    ("sharded_tenants", sharded_tenants);
  ]
