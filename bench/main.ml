(* Benchmark harness: regenerates every figure and table of the paper's
   evaluation (Sec. 6), the motivating example, the operator traces of
   Examples 6/7, and ablations over the design parameters. See
   EXPERIMENTS.md for the experiment index and recorded outputs.

   Usage:
     dune exec bench/main.exe                 run every section
     dune exec bench/main.exe -- --filter fig9
     dune exec bench/main.exe -- --quick      smaller sweep
     dune exec bench/main.exe -- --micro      fused vs iterator chain ns/extension
     dune exec bench/main.exe -- micro        Bechamel microbenches *)

module Tree = Xnav_xml.Tree
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Io_scheduler = Xnav_storage.Io_scheduler
module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Path = Xnav_xpath.Path
module Xpath_parser = Xnav_xpath.Xpath_parser
module Plan = Xnav_core.Plan
module Exec = Xnav_core.Exec
module Context = Xnav_core.Context
module Result_cache = Xnav_core.Result_cache
module Bench_schema = Xnav_core.Bench_schema
module Xmark = Xnav_xmark.Gen
module Queries = Xnav_xmark.Queries
module Workload = Xnav_workload.Workload
module Shard = Xnav_workload.Shard

(* --- configuration --------------------------------------------------------- *)

type bench_config = {
  fidelity : float;
  page_size : int;
  buffer : int;
  scale_factors : float list;
}

let full_config =
  {
    fidelity = 0.05;
    page_size = 4096;
    buffer = 256;
    scale_factors = [ 0.1; 0.25; 0.5; 0.75; 1.0; 1.25; 1.5; 1.75; 2.0 ];
  }

let quick_config =
  { full_config with fidelity = 0.02; scale_factors = [ 0.1; 0.5; 1.0; 2.0 ] }

(* Tiny profile for the @bench-smoke gate: small documents, two scale
   factors — enough to exercise every plan end to end in seconds. *)
let smoke_config = { full_config with fidelity = 0.005; scale_factors = [ 0.25; 1.0 ] }

let section_header title =
  Printf.printf "\n== %s ==\n" title

(* The three plans of the paper's evaluation (Sec. 6.2) — Simple,
   XSchedule with speculative = false, XScan — plus the structural-index
   plan added on top of the paper's algebra (ISSUE 6). *)
let paper_plans =
  [
    ("simple", Plan.simple);
    ("xschedule", Plan.xschedule ~speculative:false ());
    ("xscan", Plan.xscan ());
    ("xindex", Plan.xindex ());
  ]

let make_store ?(strategy = Import.Dfs) cfg doc =
  let disk = Disk.create ~config:{ Disk.default_config with Disk.page_size = cfg.page_size } () in
  let import = Import.run ~strategy disk doc in
  let buffer = Buffer_manager.create ~capacity:cfg.buffer disk in
  (Store.attach buffer import, import)

(* Evaluate a benchmark query (summing over its paths, each started
   cold as in the paper) and return (count, total, cpu, io). *)
let run_query ?config store plan (q : Queries.t) =
  List.fold_left
    (fun (count, total, cpu, io) path ->
      let r = Exec.cold_run ?config ~ordered:false store path plan in
      ( count + r.Exec.count,
        total +. r.Exec.metrics.Exec.total_time,
        cpu +. r.Exec.metrics.Exec.cpu_time,
        io +. r.Exec.metrics.Exec.io_time ))
    (0, 0., 0., 0.) q.Queries.paths

(* Aggregation of full metric records across a query's paths: times and
   event counters add, peaks take the maximum, [fell_back] is sticky. *)
let zero_metrics =
  {
    Exec.io_time = 0.;
    cpu_time = 0.;
    total_time = 0.;
    page_reads = 0;
    sequential_reads = 0;
    random_reads = 0;
    seek_distance = 0;
    buffer_lookups = 0;
    buffer_hits = 0;
    buffer_misses = 0;
    async_reads = 0;
    batched_reads = 0;
    batch_pages = 0;
    coalesce_runs = 0;
    scan_windows = 0;
    scan_window_pages = 0;
    instances = 0;
    crossings = 0;
    specs_created = 0;
    specs_stored = 0;
    specs_resolved = 0;
    s_peak = 0;
    q_peak = 0;
    q_enqueued = 0;
    q_served = 0;
    clusters_visited = 0;
    swizzle_hits = 0;
    swizzle_misses = 0;
    index_entries = 0;
    index_clusters = 0;
    index_residuals = 0;
    fused_transitions = 0;
    fused_states = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
    shared_demand = 0;
    writer_commits = 0;
    latch_waits = 0;
    snapshot_retries = 0;
    cluster_stales = 0;
    scan_resist_hits = 0;
    fell_back = false;
  }

let add_metrics (a : Exec.metrics) (b : Exec.metrics) =
  {
    Exec.io_time = a.Exec.io_time +. b.Exec.io_time;
    cpu_time = a.Exec.cpu_time +. b.Exec.cpu_time;
    total_time = a.Exec.total_time +. b.Exec.total_time;
    page_reads = a.Exec.page_reads + b.Exec.page_reads;
    sequential_reads = a.Exec.sequential_reads + b.Exec.sequential_reads;
    random_reads = a.Exec.random_reads + b.Exec.random_reads;
    seek_distance = a.Exec.seek_distance + b.Exec.seek_distance;
    buffer_lookups = a.Exec.buffer_lookups + b.Exec.buffer_lookups;
    buffer_hits = a.Exec.buffer_hits + b.Exec.buffer_hits;
    buffer_misses = a.Exec.buffer_misses + b.Exec.buffer_misses;
    async_reads = a.Exec.async_reads + b.Exec.async_reads;
    batched_reads = a.Exec.batched_reads + b.Exec.batched_reads;
    batch_pages = a.Exec.batch_pages + b.Exec.batch_pages;
    coalesce_runs = a.Exec.coalesce_runs + b.Exec.coalesce_runs;
    scan_windows = a.Exec.scan_windows + b.Exec.scan_windows;
    scan_window_pages = a.Exec.scan_window_pages + b.Exec.scan_window_pages;
    instances = a.Exec.instances + b.Exec.instances;
    crossings = a.Exec.crossings + b.Exec.crossings;
    specs_created = a.Exec.specs_created + b.Exec.specs_created;
    specs_stored = a.Exec.specs_stored + b.Exec.specs_stored;
    specs_resolved = a.Exec.specs_resolved + b.Exec.specs_resolved;
    s_peak = max a.Exec.s_peak b.Exec.s_peak;
    q_peak = max a.Exec.q_peak b.Exec.q_peak;
    q_enqueued = a.Exec.q_enqueued + b.Exec.q_enqueued;
    q_served = a.Exec.q_served + b.Exec.q_served;
    clusters_visited = a.Exec.clusters_visited + b.Exec.clusters_visited;
    swizzle_hits = a.Exec.swizzle_hits + b.Exec.swizzle_hits;
    swizzle_misses = a.Exec.swizzle_misses + b.Exec.swizzle_misses;
    index_entries = a.Exec.index_entries + b.Exec.index_entries;
    index_clusters = a.Exec.index_clusters + b.Exec.index_clusters;
    index_residuals = a.Exec.index_residuals + b.Exec.index_residuals;
    fused_transitions = a.Exec.fused_transitions + b.Exec.fused_transitions;
    fused_states = a.Exec.fused_states + b.Exec.fused_states;
    cache_hits = a.Exec.cache_hits + b.Exec.cache_hits;
    cache_misses = a.Exec.cache_misses + b.Exec.cache_misses;
    cache_evictions = a.Exec.cache_evictions + b.Exec.cache_evictions;
    shared_demand = a.Exec.shared_demand + b.Exec.shared_demand;
    writer_commits = a.Exec.writer_commits + b.Exec.writer_commits;
    latch_waits = a.Exec.latch_waits + b.Exec.latch_waits;
    snapshot_retries = a.Exec.snapshot_retries + b.Exec.snapshot_retries;
    cluster_stales = a.Exec.cluster_stales + b.Exec.cluster_stales;
    scan_resist_hits = a.Exec.scan_resist_hits + b.Exec.scan_resist_hits;
    fell_back = a.Exec.fell_back || b.Exec.fell_back;
  }

let run_query_full ?config store plan (q : Queries.t) =
  List.fold_left
    (fun (count, m) path ->
      let r = Exec.cold_run ?config ~ordered:false store path plan in
      (count + r.Exec.count, add_metrics m r.Exec.metrics))
    (0, zero_metrics) q.Queries.paths

(* --- figures 9, 10, 11 and table 3 ------------------------------------------ *)

(* One shared sweep: for each scaling factor, build the document once and
   run every query with every plan. *)
let sweep cfg =
  List.map
    (fun scale ->
      let doc =
        Xmark.generate ~config:{ Xmark.default_config with Xmark.scale; fidelity = cfg.fidelity } ()
      in
      let store, import = make_store cfg doc in
      let rows =
        List.map
          (fun (q : Queries.t) ->
            ( q.Queries.name,
              List.map (fun (pname, plan) -> (pname, run_query store plan q)) paper_plans ))
          Queries.all
      in
      (scale, import.Import.node_count, import.Import.page_count, rows))
    cfg.scale_factors

let figure sweep_data fig_no (q : Queries.t) =
  section_header
    (Printf.sprintf "Figure %d: %s — %s (total simulated seconds vs scaling factor)" fig_no
       q.Queries.name q.Queries.description);
  Printf.printf "%-6s %9s %9s %11s %11s %11s\n" "sf" "nodes" "pages" "simple" "xschedule" "xscan";
  let worst_ratio = ref infinity and scan_vs_simple = ref 0.0 in
  List.iter
    (fun (scale, nodes, pages, rows) ->
      let cells = List.assoc q.Queries.name rows in
      let t name =
        let _, total, _, _ = List.assoc name cells in
        total
      in
      Printf.printf "%-6.2f %9d %9d %11.4f %11.4f %11.4f\n" scale nodes pages (t "simple")
        (t "xschedule") (t "xscan");
      worst_ratio := min !worst_ratio (t "simple" /. t "xschedule");
      scan_vs_simple := max !scan_vs_simple (t "simple" /. t "xscan"))
    sweep_data;
  Printf.printf "shape: simple/xschedule >= %.2fx at every sf; best simple/xscan = %.2fx\n"
    !worst_ratio !scan_vs_simple

let table3 sweep_data =
  section_header "Table 3: total and CPU time at XMark scaling factor 1";
  (match List.find_opt (fun (scale, _, _, _) -> scale = 1.0) sweep_data with
  | None -> print_endline "(no sf=1.0 in this sweep)"
  | Some (_, _, _, rows) ->
    Printf.printf "%-6s %-9s | %10s %10s %6s\n" "query" "plan" "total[s]" "CPU[s]" "CPU%%";
    List.iter
      (fun (qname, cells) ->
        List.iter
          (fun (pname, (_, total, cpu, _)) ->
            Printf.printf "%-6s %-9s | %10.4f %10.4f %5.0f%%\n" qname pname total cpu
              (100. *. cpu /. Float.max 1e-9 total))
          cells)
      rows;
    print_endline
      "shape: the scan plan does most of its work on the CPU (highest CPU share),\n\
       the simple plan is I/O bound (lowest CPU share)")

(* --- example 1: motivation -------------------------------------------------- *)

let example1 () =
  section_header "Example 1: page access order of naive navigation (paper Fig. 1)";
  (* Root a and its children b..g live on page 0; each child's small
     subtree sits on its own page, and those pages are jumbled on disk
     (an update-worn layout, like the paper's 0,3,1,2 figure). *)
  let subtree i =
    Tree.elt
      (Printf.sprintf "%c" (Char.chr (Char.code 'b' + i)))
      [ Tree.elt "x" []; Tree.elt "y" [] ]
  in
  let doc = Tree.elt "a" (List.init 6 subtree) in
  ignore (Tree.index doc);
  let page_of_subtree = [| 4; 0; 5; 2; 1; 3 |] in
  let assignment = Array.make (Tree.size doc) 0 in
  Tree.iter
    (fun node ->
      let pre = node.Tree.preorder in
      if pre > 0 then begin
        let subtree_index = (pre - 1) / 3 in
        if (pre - 1) mod 3 <> 0 then
          (* x/y grandchildren: the subtree's own jumbled page. *)
          assignment.(pre) <- 1 + page_of_subtree.(subtree_index)
      end)
    doc;
  let disk = Disk.create ~config:{ Disk.default_config with Disk.page_size = 512 } () in
  let import = Import.run ~strategy:(Import.Explicit assignment) disk doc in
  let buffer = Buffer_manager.create ~capacity:16 disk in
  let store = Store.attach buffer import in
  let path = Xpath_parser.parse "//node()" in
  Disk.set_trace disk true;
  let naive = Exec.cold_run store path Plan.simple in
  let naive_order = Disk.trace disk in
  let naive_seek = (Disk.stats disk).Disk.seek_distance in
  Disk.set_trace disk true;
  let sched = Exec.cold_run store path (Plan.xschedule ()) in
  let sched_order = Disk.trace disk in
  let sched_seek = (Disk.stats disk).Disk.seek_distance in
  Disk.set_trace disk false;
  let show order = String.concat "," (List.map string_of_int order) in
  Printf.printf "document: %d nodes over %d pages\n" (Tree.size doc) import.Import.page_count;
  Printf.printf "naive (simple) access order:     %s   seek distance %d\n" (show naive_order)
    naive_seek;
  Printf.printf "xschedule (async) access order:  %s   seek distance %d\n" (show sched_order)
    sched_seek;
  Printf.printf "both return %d = %d nodes; reordering cut seeks by %.1fx\n" naive.Exec.count
    sched.Exec.count
    (float_of_int naive_seek /. Float.max 1.0 (float_of_int sched_seek))

(* --- table 1: path instance classification ---------------------------------- *)

(* The paper's Table 1 classifies partial path instances for /A//B; the
   classification predicate mirrors Sec. 4.3: an instance is F(ull),
   L(eft-complete), R(ight-complete), C(omplete) from (l, r), whether the
   end nodes are border nodes, and the path length. *)
let table1 () =
  section_header "Table 1: partial path instances for /A//B (classification per Sec. 4.3)";
  let path_len = 2 in
  let classify ~l ~r ~left_border ~right_border =
    let left_complete = not left_border in
    let right_complete = not right_border in
    let complete = left_complete && right_complete in
    let full = complete && l = 0 && r = path_len in
    (full, left_complete, right_complete, complete)
  in
  let rows =
    (* (no, ctx, step1, step2, l, r, left_border, right_border) — the
       nine rows of the paper's table on its sample tree (Fig. 3). *)
    [
      (1, "d1", "eps", "eps", 0, 0, false, false);
      (2, "d1", "a2", "eps", 0, 1, false, false);
      (3, "d1", "c2", "eps", 0, 1, false, false);
      (4, "d1", "c2", "c4", 0, 2, false, false);
      (5, "d1", "a2", "a3", 0, 2, false, false);
      (6, "d1", "d2", "eps", 0, 1, false, true);
      (7, "d1", "d3", "eps", 0, 1, false, true);
      (8, "c1", "c2", "c4", 0, 2, true, false);
      (9, "a1", "a2", "a3", 0, 2, true, false);
    ]
  in
  let expected =
    (* F L R C from the paper. *)
    [
      (false, true, true, true); (false, true, true, true); (false, true, true, true);
      (true, true, true, true); (true, true, true, true); (false, true, false, false);
      (false, true, false, false); (false, false, true, false); (false, false, true, false);
    ]
  in
  Printf.printf "%-3s %-8s %-6s %-6s %2s %2s | %2s %2s %2s %2s | paper\n" "no" "context" "pi1"
    "pi2" "l" "r" "F" "L" "R" "C";
  let all_match = ref true in
  List.iter2
    (fun (no, ctx, s1, s2, l, r, lb, rb) (ef, el, er, ec) ->
      let f, lc, rc, c = classify ~l ~r ~left_border:lb ~right_border:rb in
      let mark b = if b then "+" else "-" in
      if (f, lc, rc, c) <> (ef, el, er, ec) then all_match := false;
      Printf.printf "%-3d %-8s %-6s %-6s %2d %2d | %2s %2s %2s %2s | %s\n" no ctx s1 s2 l r
        (mark f) (mark lc) (mark rc) (mark c)
        (if (f, lc, rc, c) = (ef, el, er, ec) then "match" else "MISMATCH"))
    rows expected;
  Printf.printf "all nine rows match the paper: %b\n" !all_match

(* --- table 2: the selected XMark queries -------------------------------------- *)

let table2 cfg =
  section_header "Table 2: selected XMark queries (with result counts at sf=1)";
  let doc =
    Xmark.generate
      ~config:{ Xmark.default_config with Xmark.scale = 1.0; fidelity = cfg.fidelity }
      ()
  in
  let store, _ = make_store cfg doc in
  Printf.printf "%-5s %-70s %8s\n" "No." "XPath queries" "count";
  List.iter
    (fun (q : Queries.t) ->
      let count, _, _, _ = run_query store Plan.simple q in
      let desc = q.Queries.description in
      let desc = if String.length desc > 70 then String.sub desc 0 70 else desc in
      Printf.printf "%-5s %-70s %8d\n" (String.uppercase_ascii q.Queries.name) desc count)
    Queries.all

(* --- examples 6/7: operator trace -------------------------------------------- *)

let trace_section () =
  section_header "Examples 6/7: operator cooperation trace for /A//B on a clustered tree";
  let e = Tree.elt in
  (* A small document in the spirit of the paper's Fig. 5. *)
  let doc =
    e "R" [ e "A" [ e "B" [] ; e "C" [ e "B" [] ] ]; e "C" [ e "A" [ e "B" [] ] ] ]
  in
  let path = Path.from_root_element (Xpath_parser.parse "/R/A//B") in
  List.iter
    (fun (label, plan) ->
      Printf.printf "--- %s plan ---\n" label;
      let disk = Disk.create ~config:{ Disk.default_config with Disk.page_size = 256 } () in
      let import = Import.run ~payload:120 ~strategy:Import.Bfs disk doc in
      let buffer = Buffer_manager.create ~capacity:16 disk in
      let store = Store.attach buffer import in
      let r =
        Exec.cold_run ~trace:(fun msg -> Printf.printf "  %s\n" msg) store path plan
      in
      Printf.printf "  => %d result nodes from %d pages\n" r.Exec.count import.Import.page_count)
    [ ("XSchedule (Example 6)", Plan.xschedule ()); ("XScan (Example 7)", Plan.xscan ()) ]

(* --- ablations ----------------------------------------------------------------- *)

let xmark_store ?(strategy = Import.Dfs) cfg ~scale =
  let doc =
    Xmark.generate ~config:{ Xmark.default_config with Xmark.scale; fidelity = cfg.fidelity } ()
  in
  make_store ~strategy cfg doc

let ablation_k cfg =
  section_header "Ablation: XSchedule queue minimum k (//item from region contexts, scattered layout)";
  let store, _ = xmark_store ~strategy:(Import.Scattered 11) cfg ~scale:0.5 in
  (* To give k something to do, evaluate the //item step from many
     region contexts instead of the single document root. *)
  let contexts_path = Path.from_root_element (Xpath_parser.parse "/site/regions/*") in
  let contexts =
    (Exec.cold_run store contexts_path Plan.simple).Exec.nodes
    |> List.map (fun (i : Store.info) -> i.Store.id)
  in
  let item_path = Xpath_parser.parse "descendant-or-self::node()/item" in
  Printf.printf "%-8s %10s %12s %10s\n" "k" "io[s]" "seek-dist" "count";
  List.iter
    (fun k ->
      let config = { Context.default_config with Context.k; speculative = false } in
      let r =
        Exec.cold_run ~config ~contexts ~ordered:false store item_path
          (Plan.xschedule ~speculative:false ())
      in
      Printf.printf "%-8d %10.4f %12d %10d\n" k r.Exec.metrics.Exec.io_time
        r.Exec.metrics.Exec.seek_distance r.Exec.count)
    [ 1; 10; 100; 1000 ]

let ablation_sched cfg =
  section_header "Ablation: asynchronous I/O policy (Q6' on a scattered layout)";
  Printf.printf "%-10s %10s %12s %10s\n" "policy" "io[s]" "seek-dist" "random";
  let doc =
    Xmark.generate
      ~config:{ Xmark.default_config with Xmark.scale = 1.0; fidelity = cfg.fidelity }
      ()
  in
  List.iter
    (fun policy ->
      let disk =
        Disk.create ~config:{ Disk.default_config with Disk.page_size = cfg.page_size } ()
      in
      let import = Import.run ~strategy:(Import.Scattered 11) disk doc in
      let buffer = Buffer_manager.create ~capacity:cfg.buffer ~policy disk in
      let store = Store.attach buffer import in
      ignore import;
      let q = Queries.q6' in
      let _, _, _, io = run_query store (Plan.xschedule ~speculative:false ()) q in
      let stats = Disk.stats disk in
      Printf.printf "%-10s %10.4f %12d %10d\n"
        (Io_scheduler.policy_to_string policy)
        io stats.Disk.seek_distance stats.Disk.random_reads)
    Io_scheduler.all_policies

let ablation_batching cfg =
  section_header
    "Ablation: coalescing window x adaptive scan threshold (XSchedule, simulated io seconds)";
  let store, _ = xmark_store cfg ~scale:1.0 in
  let queries = [ Queries.q6'; Queries.q7; Queries.q15 ] in
  Printf.printf "%-8s %-10s %10s %10s %10s %9s %9s %8s\n" "window" "threshold" "q6'[s]" "q7[s]"
    "q15[s]" "batches" "pages" "windows";
  List.iter
    (fun coalesce_window ->
      List.iter
        (fun scan_threshold ->
          let config =
            {
              Context.default_config with
              Context.speculative = false;
              coalesce_window;
              scan_threshold;
            }
          in
          let results =
            List.map
              (fun q -> run_query_full ~config store (Plan.xschedule ~speculative:false ()) q)
              queries
          in
          let agg = List.fold_left (fun acc (_, m) -> add_metrics acc m) zero_metrics results in
          let io i =
            let _, m = List.nth results i in
            m.Exec.io_time
          in
          Printf.printf "%-8d %-10s %10.4f %10.4f %10.4f %9d %9d %8d\n" coalesce_window
            (if scan_threshold <= 0.0 then "off" else Printf.sprintf "%.2f" scan_threshold)
            (io 0) (io 1) (io 2) agg.Exec.batched_reads agg.Exec.batch_pages
            agg.Exec.scan_windows)
        [ 0.0; 0.25; 0.5 ])
    [ 0; 4; 16; 64 ]

let ablation_clustering cfg =
  section_header "Ablation: clustering strategy (Q6', all plans)";
  Printf.printf "%-16s %11s %11s %11s\n" "layout" "simple" "xschedule" "xscan";
  List.iter
    (fun strategy ->
      let store, _ = xmark_store ~strategy cfg ~scale:1.0 in
      Printf.printf "%-16s" (Import.strategy_to_string strategy);
      List.iter
        (fun (_, plan) ->
          let _, total, _, _ = run_query store plan Queries.q6' in
          Printf.printf " %10.4f " total)
        paper_plans;
      print_newline ())
    [ Import.Dfs; Import.Bfs; Import.Scattered 11 ]

let ablation_buffer cfg =
  section_header "Ablation: buffer capacity (Q7)";
  let doc =
    Xmark.generate
      ~config:{ Xmark.default_config with Xmark.scale = 1.0; fidelity = cfg.fidelity }
      ()
  in
  Printf.printf "%-8s %11s %11s %11s\n" "pages" "simple" "xschedule" "xscan";
  List.iter
    (fun capacity ->
      let store, _ = make_store { cfg with buffer = capacity } doc in
      Printf.printf "%-8d" capacity;
      List.iter
        (fun (_, plan) ->
          let _, total, _, _ = run_query store plan Queries.q7 in
          Printf.printf " %10.4f " total)
        paper_plans;
      print_newline ())
    [ 32; 64; 128; 256; 512; 1024 ]

let ablation_fallback cfg =
  section_header "Ablation: fallback memory budget (Q7 first path, XScan, scattered layout)";
  let store, _ = xmark_store ~strategy:(Import.Scattered 11) cfg ~scale:0.5 in
  let path = List.hd Queries.q7.Queries.paths in
  Printf.printf "%-12s %11s %8s %8s %10s\n" "budget |S|" "total[s]" "S-peak" "fellback" "count";
  List.iter
    (fun memory_budget ->
      let config = { Context.default_config with Context.memory_budget } in
      let r = Exec.cold_run ~config ~ordered:false store path (Plan.xscan ()) in
      Printf.printf "%-12d %11.4f %8d %8b %10d\n" memory_budget r.Exec.metrics.Exec.total_time
        r.Exec.metrics.Exec.s_peak r.Exec.metrics.Exec.fell_back r.Exec.count)
    [ 0; 100; 1000; 10000; 1000000 ]

let ablation_multi cfg =
  section_header
    "Ablation (outlook Sec. 7): Q7's three paths — one shared scan vs three XScan plans";
  let store, import = xmark_store cfg ~scale:1.0 in
  let paths = Queries.q7.Queries.paths in
  let sep_count, sep_total, _, _ = run_query store (Plan.xscan ()) Queries.q7 in
  let multi = Xnav_core.Multi.run ~cold:true ~ordered:false store paths in
  let multi_count = Array.fold_left ( + ) 0 multi.Xnav_core.Multi.counts in
  Printf.printf "%-22s %10s %12s %10s\n" "strategy" "count" "page-reads" "total[s]";
  Printf.printf "%-22s %10d %12d %10.4f\n" "three XScan plans" sep_count
    (3 * import.Import.page_count) sep_total;
  Printf.printf "%-22s %10d %12d %10.4f\n" "one shared scan" multi_count
    multi.Xnav_core.Multi.page_reads multi.Xnav_core.Multi.total_time;
  Printf.printf "shared scan saves %.1fx of the I/O passes\n"
    (float_of_int (3 * import.Import.page_count)
    /. Float.max 1.0 (float_of_int multi.Xnav_core.Multi.page_reads))

let ablation_concurrency cfg =
  section_header
    "Ablation (outlook Sec. 7): two concurrent queries, interleaved vs sequential";
  let store, _ = xmark_store cfg ~scale:1.0 in
  let p1 = List.hd Queries.q7.Queries.paths in
  let p2 = List.nth Queries.q7.Queries.paths 1 in
  let sequential plan =
    let a = Exec.cold_run ~ordered:false store p1 plan in
    let b = Exec.run ~ordered:false store p2 plan in
    ( a.Exec.metrics.Exec.io_time +. b.Exec.metrics.Exec.io_time,
      a.Exec.metrics.Exec.seek_distance + b.Exec.metrics.Exec.seek_distance )
  in
  let interleaved plan =
    let r = Xnav_core.Interleave.run ~cold:true ~ordered:false store [ (p1, plan); (p2, plan) ] in
    (r.Xnav_core.Interleave.io_time, r.Xnav_core.Interleave.seek_distance)
  in
  Printf.printf "%-24s %12s %12s\n" "configuration" "io[s]" "seek-dist";
  let show label (io, seek) = Printf.printf "%-24s %12.4f %12d\n" label io seek in
  show "2 x xscan, sequential" (sequential (Plan.xscan ()));
  show "2 x xscan, concurrent" (interleaved (Plan.xscan ()));
  show "2 x xschedule, sequential" (sequential (Plan.xschedule ~speculative:false ()));
  show "2 x xschedule, concurrent" (interleaved (Plan.xschedule ~speculative:false ()));
  print_endline
    "(concurrent scans drag the disk arm between two sweep positions — the\n\
     interference the paper warns about for scan-only designs; concurrent\n\
     schedules pool their pending requests in one queue)"

let ablation_rewrite cfg =
  section_header
    "Ablation (requirement 4): logical //-compression before physical reordering (Q7 paths)";
  let store, _ = xmark_store cfg ~scale:1.0 in
  Printf.printf "%-30s %-9s %10s %12s %10s\n" "path" "form" "steps" "specs" "total[s]";
  List.iter
    (fun path ->
      List.iter
        (fun (form, p) ->
          let r = Exec.cold_run ~ordered:false store p (Plan.xscan ()) in
          Printf.printf "%-30s %-9s %10d %12d %10.4f\n"
            (String.concat "/" (List.filteri (fun i _ -> i < 1) [ Path.to_string path ])
            |> fun s -> if String.length s > 30 then String.sub s 0 30 else s)
            form (Path.length p) r.Exec.metrics.Exec.specs_created
            r.Exec.metrics.Exec.total_time)
        [ ("raw", path); ("rewritten", Xnav_xpath.Rewrite.normalize path) ])
    Queries.q7.Queries.paths

let ablation_decay cfg =
  section_header
    "Ablation: layout decay through real updates (bulk load, then grow the document in place)";
  let doc =
    Xmark.generate
      ~config:{ Xmark.default_config with Xmark.scale = 0.5; fidelity = cfg.fidelity }
      ()
  in
  let store, _ = make_store cfg doc in
  let q = Queries.q6' in
  let measure label =
    Printf.printf "%-28s %9d pages |" label (Store.page_count store);
    List.iter
      (fun (_, plan) ->
        let _, total, _, _ = run_query store plan q in
        Printf.printf " %10.4f" total)
      paper_plans;
    print_newline ()
  in
  Printf.printf "%-28s %15s %10s %10s %10s\n" "state" "" "simple" "xschedule" "xscan";
  measure "freshly bulk-loaded";
  (* Age the store: append new items to every region and graft bidders
     into open auctions — the new records land in overflow pages far from
     their logical neighbours. *)
  let parse p = Path.from_root_element (Xpath_parser.parse p) in
  let ids path =
    (Exec.run ~ordered:false store (parse path) Plan.simple).Exec.nodes
    |> List.map (fun (i : Store.info) -> i.Store.id)
  in
  let new_item () =
    Tree.elt "item"
      [ Tree.elt "location" []; Tree.elt "name" []; Tree.elt "description" [ Tree.elt "text" [] ] ]
  in
  let regions = ids "/site/regions/*" in
  let initial_pages = Store.page_count store in
  let target = initial_pages + (initial_pages / 4) in
  let rounds = ref 0 in
  (* Churn: every round deletes the oldest item of each region and
     appends a fresh one — freed slots get reused by whatever inserts
     next, interleaving unrelated subtrees on the same pages. *)
  while Store.page_count store < target && !rounds < 400 do
    incr rounds;
    List.iter
      (fun region ->
        (match
           (Exec.run ~ordered:false store ~contexts:[ region ]
              (Xpath_parser.parse "child::item") Plan.simple).Exec.nodes
         with
        | (oldest : Store.info) :: _ ->
          ignore (Xnav_store.Update.delete_subtree store oldest.Store.id)
        | [] -> ());
        ignore (Xnav_store.Update.insert_tree store ~parent:region (new_item ()));
        ignore (Xnav_store.Update.insert_tree store ~parent:region (new_item ())))
      regions
  done;
  let auctions = ids "/site/open_auctions/open_auction" in
  List.iteri
    (fun i auction ->
      if i mod 2 = 0 then
        ignore
          (Xnav_store.Update.insert_tree store ~parent:auction
             (Tree.elt "bidder" [ Tree.elt "date" []; Tree.elt "increase" [] ])))
    auctions;
  measure "after in-place churn";
  print_endline
    "(churned records land in overflow pages linked by fresh border pairs;\n\
     every plan pays for the fragmentation, and the layout-independent scan\n\
     overtakes the schedule plan as decay progresses -- update wear shifts\n\
     the optimizer's crossover toward scans, which is why the plan choice\n\
     must be cost-based rather than fixed)"

let ablation_replacement cfg =
  section_header "Ablation: buffer replacement policy (Q7 first path, Simple plan, small buffer)";
  let doc =
    Xmark.generate
      ~config:{ Xmark.default_config with Xmark.scale = 1.0; fidelity = cfg.fidelity }
      ()
  in
  let path = List.hd Queries.q7.Queries.paths in
  Printf.printf "%-8s %11s %10s %10s\n" "policy" "total[s]" "hits" "misses";
  List.iter
    (fun replacement ->
      let disk =
        Disk.create ~config:{ Disk.default_config with Disk.page_size = cfg.page_size } ()
      in
      let import = Import.run disk doc in
      let buffer = Buffer_manager.create ~capacity:64 ~replacement disk in
      let store = Store.attach buffer import in
      ignore import;
      let r = Exec.cold_run ~ordered:false store path Plan.simple in
      let stats = Buffer_manager.stats buffer in
      Printf.printf "%-8s %11.4f %10d %10d\n"
        (Buffer_manager.replacement_to_string replacement)
        r.Exec.metrics.Exec.total_time stats.Buffer_manager.hits stats.Buffer_manager.misses)
    Buffer_manager.all_replacements

let ablation_estimate cfg =
  section_header
    "Ablation: cardinality estimation — per-tag bound (v1) vs path synopsis (v2) vs actual";
  let store, _ = xmark_store cfg ~scale:1.0 in
  Printf.printf "%-34s %12s %12s %12s\n" "path" "v1 bound" "v2 synopsis" "actual";
  List.iter
    (fun path ->
      let v1 =
        List.fold_left
          (fun acc (s : Path.step) ->
            acc
            + (match s.Path.test with
              | Path.Name tag -> Store.tag_count store tag
              | Path.Wildcard | Path.Any_node -> Store.node_count store))
          0 path
      in
      let v2 =
        match Store.doc_stats store with
        | Some stats ->
          let per_step = Xnav_store.Doc_stats.estimate_path stats path in
          List.nth per_step (List.length per_step - 1)
        | None -> nan
      in
      let actual = (Exec.cold_run ~ordered:false store path Plan.simple).Exec.count in
      let label = Path.to_string path in
      let label =
        if String.length label > 34 then String.sub label (String.length label - 34) 34
        else label
      in
      Printf.printf "%-34s %12d %12.0f %12d\n" label v1 v2 actual)
    (List.concat_map (fun (q : Queries.t) -> q.Queries.paths) Queries.all);
  print_endline
    "(v1 sums per-tag totals over the steps — a wild over-estimate; the v2\n\
     synopsis propagates parent/child pair statistics down the path)"

(* --- swizzled vs unswizzled navigation fixtures ----------------------------- *)

(* [reps] cursor walks over one pinned view: the access pattern of an
   XStep chain re-walking its cluster once per path instance. With the
   decode cache on, only the first walk pays the record codec. *)
let cursor_walk store ~reps axis =
  let root = Store.root store in
  let v = Store.view store root.Node_id.pid in
  let total = ref 0 in
  for _ = 1 to reps do
    let c = Store.start v axis root.Node_id.slot in
    let rec go () =
      match Store.next_emission c with
      | None -> ()
      | Some _ ->
        incr total;
        go ()
    in
    go ()
  done;
  Store.release store v;
  !total

(* One single-page document and one spanning ~100 pages (only the root
   cluster is walked; the many-page layout gives it border records). *)
let swizzle_fixtures () =
  let one_page =
    Tree.elt "root" (List.init 40 (fun i -> Tree.elt (Printf.sprintf "c%d" (i mod 7)) []))
  in
  let hundred_pages =
    Tree.elt "root"
      (List.init 850 (fun _ ->
           Tree.elt "item"
             [ Tree.elt "name" []; Tree.elt "description" [ Tree.elt "text" [] ] ]))
  in
  List.map
    (fun (label, doc, payload) ->
      let disk = Disk.create ~config:{ Disk.default_config with Disk.page_size = 4096 } () in
      let import = Import.run ~payload disk doc in
      let buffer = Buffer_manager.create ~capacity:256 disk in
      (label, Store.attach buffer import, import.Import.page_count))
    [ ("1page", one_page, 3800); ("100page", hundred_pages, 3400) ]

let swizzle_axes = [ ("child", Xnav_xml.Axis.Child); ("descendant", Xnav_xml.Axis.Descendant) ]

(* --- machine-readable output (--json) --------------------------------------- *)

exception Malformed of string

let jfloat v =
  if not (Float.is_finite v) then raise (Malformed (Printf.sprintf "non-finite float %h" v));
  Printf.sprintf "%.6f" v

let jstring s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstring k ^ ":" ^ v) fields) ^ "}"

let jarr items = "[" ^ String.concat "," items ^ "]"

(* Structural self-check on the emitted text: the file is written by
   string concatenation, so guard against an unbalanced or truncated
   document before it lands on disk. *)
let check_json_shape s =
  let depth = ref 0 and in_str = ref false and escaped = ref false in
  String.iter
    (fun c ->
      if !in_str then begin
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
          decr depth;
          if !depth < 0 then raise (Malformed "closing bracket without opener")
        | _ -> ())
    s;
  if String.length s = 0 || !depth <> 0 || !in_str then
    raise (Malformed "unbalanced braces or unterminated string")

let metrics_fields count (m : Exec.metrics) =
  [
    ("count", string_of_int count);
    ("io_time", jfloat m.Exec.io_time);
    ("cpu_time", jfloat m.Exec.cpu_time);
    ("total_time", jfloat m.Exec.total_time);
    ("page_reads", string_of_int m.Exec.page_reads);
    ("sequential_reads", string_of_int m.Exec.sequential_reads);
    ("random_reads", string_of_int m.Exec.random_reads);
    ("seek_distance", string_of_int m.Exec.seek_distance);
    ("buffer_lookups", string_of_int m.Exec.buffer_lookups);
    ("buffer_hits", string_of_int m.Exec.buffer_hits);
    ("buffer_misses", string_of_int m.Exec.buffer_misses);
    ("async_reads", string_of_int m.Exec.async_reads);
    ("batched_reads", string_of_int m.Exec.batched_reads);
    ("batch_pages", string_of_int m.Exec.batch_pages);
    ("coalesce_runs", string_of_int m.Exec.coalesce_runs);
    ("scan_windows", string_of_int m.Exec.scan_windows);
    ("scan_window_pages", string_of_int m.Exec.scan_window_pages);
    ("instances", string_of_int m.Exec.instances);
    ("crossings", string_of_int m.Exec.crossings);
    ("specs_created", string_of_int m.Exec.specs_created);
    ("specs_stored", string_of_int m.Exec.specs_stored);
    ("specs_resolved", string_of_int m.Exec.specs_resolved);
    ("s_peak", string_of_int m.Exec.s_peak);
    ("q_peak", string_of_int m.Exec.q_peak);
    ("q_enqueued", string_of_int m.Exec.q_enqueued);
    ("q_served", string_of_int m.Exec.q_served);
    ("clusters_visited", string_of_int m.Exec.clusters_visited);
    ("swizzle_hits", string_of_int m.Exec.swizzle_hits);
    ("swizzle_misses", string_of_int m.Exec.swizzle_misses);
    ("swizzle_hit_rate", jfloat (Exec.swizzle_hit_rate m));
    ("index_entries", string_of_int m.Exec.index_entries);
    ("index_clusters", string_of_int m.Exec.index_clusters);
    ("index_residuals", string_of_int m.Exec.index_residuals);
    ("fused_transitions", string_of_int m.Exec.fused_transitions);
    ("fused_states", string_of_int m.Exec.fused_states);
    ("cache_hits", string_of_int m.Exec.cache_hits);
    ("cache_misses", string_of_int m.Exec.cache_misses);
    ("cache_evictions", string_of_int m.Exec.cache_evictions);
    ("shared_demand", string_of_int m.Exec.shared_demand);
    ("scan_resist_hits", string_of_int m.Exec.scan_resist_hits);
    ("fell_back", if m.Exec.fell_back then "true" else "false");
  ]

(* CPU-time a thunk, growing the iteration count until the sample is
   long enough to trust; returns nanoseconds per call. *)
let time_ns f =
  ignore (f ());
  let rec measure iters =
    let t0 = Sys.time () in
    for _ = 1 to iters do
      ignore (f ())
    done;
    let dt = Sys.time () -. t0 in
    if dt < 0.02 && iters < 1_000_000 then measure (iters * 4)
    else dt *. 1e9 /. float_of_int iters
  in
  measure 1

(* Per-extension CPU cost of the fused automaton vs the XStep iterator
   chain, on synthetic deep paths whose evaluation is pure chain work
   (warm buffer, scan I/O amortised away by the iteration count). The
   denominator is the number of automaton transitions — one per cursor
   emission, identical for both chain implementations by construction. *)
let fused_micro_fixtures () =
  let rec nest tag d = Tree.elt tag (if d = 0 then [] else [ nest tag (d - 1) ]) in
  let deep = Tree.elt "root" (List.init 96 (fun _ -> nest "a" 11)) in
  let bushy =
    Tree.elt "root"
      (List.init 64 (fun _ ->
           Tree.elt "item" [ Tree.elt "name" []; Tree.elt "description" [ Tree.elt "text" [] ] ]))
  in
  let attach doc =
    let disk = Disk.create ~config:{ Disk.default_config with Disk.page_size = 4096 } () in
    let import = Import.run disk doc in
    let buffer = Buffer_manager.create ~capacity:256 disk in
    (Store.attach buffer import, import.Import.page_count)
  in
  let chain tag n =
    List.init n (fun _ ->
        { Path.axis = Xnav_xml.Axis.Child; Path.test = Path.Name (Xnav_xml.Tag.of_string tag) })
  in
  let descend tag =
    [
      { Path.axis = Xnav_xml.Axis.Descendant; Path.test = Path.Name (Xnav_xml.Tag.of_string tag) };
    ]
  in
  [
    ("deep-child-12", attach deep, chain "a" 12);
    ("deep-child-6", attach deep, chain "a" 6);
    ("bushy-descendant", attach bushy, descend "text");
  ]

let fused_micro_rows () =
  List.map
    (fun (name, (store, pages), path) ->
      let run fused =
        let config = Context.set_fused fused Context.default_config in
        Exec.run ~config ~ordered:false store path (Plan.xscan ())
      in
      let transitions = (run true).Exec.metrics.Exec.fused_transitions in
      let per_ext fused = time_ns (fun () -> run fused) /. float_of_int (max 1 transitions) in
      let fused_ns = per_ext true in
      let chain_ns = per_ext false in
      jobj
        [
          ("name", jstring name);
          ("pages", string_of_int pages);
          ("steps", string_of_int (Path.length path));
          ("transitions", string_of_int transitions);
          ("fused_ns_per_ext", jfloat fused_ns);
          ("chain_ns_per_ext", jfloat chain_ns);
          ("speedup", jfloat (chain_ns /. Float.max 1e-9 fused_ns));
        ])
    (fused_micro_fixtures ())

let swizzle_micro_rows () =
  List.concat_map
    (fun (label, store, pages) ->
      List.map
        (fun (aname, axis) ->
          let timed on =
            Store.set_swizzling store on;
            time_ns (fun () -> cursor_walk store ~reps:8 axis)
          in
          let on = timed true in
          let off = timed false in
          jobj
            [
              ("name", jstring (Printf.sprintf "%s-step-%s" aname label));
              ("pages", string_of_int pages);
              ("swizzled_ns", jfloat on);
              ("unswizzled_ns", jfloat off);
              ("speedup", jfloat (off /. Float.max 1.0 on));
            ])
        swizzle_axes)
    (swizzle_fixtures ())

(* --- skewed repeat-query mix (--workload --skew) ------------------------------- *)

(* The repeat-traffic benchmark: each path of q6'/q7/q15 is one statement
   variant, and closed-loop clients draw from the variants with a
   zipfian rank distribution — the hot statement dominates, the tail
   reappears occasionally. This is the workload the result-cache front
   door exists for: the same run is measured with the cache off (every
   job plans and executes from scratch — the historical regime) and on
   (repeats are served from the cache or deduped into in-flight
   identical scans). *)
let skew_variants () =
  List.concat_map
    (fun (q : Queries.t) ->
      List.mapi
        (fun i path -> (Printf.sprintf "%s.%d" q.Queries.name i, path))
        q.Queries.paths)
    [ Queries.q6'; Queries.q7; Queries.q15 ]

let skew_exponent = 1.1

(* Deterministic zipfian job queues: one list per client, sampled with a
   fixed-seed LCG so every run (and CI) draws the same mix. *)
let skew_mix ~clients ~per_client =
  let variants = Array.of_list (skew_variants ()) in
  let n = Array.length variants in
  let weights = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** skew_exponent)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  (* The 48-bit drand48 LCG, seeded fixed. *)
  let state = ref 0x1234ABCD330E in
  let next () =
    state := ((!state * 25214903917) + 11) land 0xFFFFFFFFFFFF;
    float_of_int (!state lsr 17) /. float_of_int 0x80000000
  in
  Array.init clients (fun c ->
      List.init per_client (fun j ->
          let u = next () *. total in
          let rec pick r acc =
            let acc = acc +. weights.(r) in
            if u <= acc || r = n - 1 then r else pick (r + 1) acc
          in
          let rank = pick 0 0.0 in
          let label, path = variants.(rank) in
          {
            Workload.label = Printf.sprintf "%s#c%d.%d" label c j;
            path;
            plan = Plan.xschedule ~speculative:false ();
            timeout = None;
            ops = [];
          }))

type skew_summary = {
  sk_clients : int;
  sk_per_client : int;
  sk_jobs : int;
  sk_distinct : int;
  sk_served_on : float;
  sk_served_off : float;
  sk_speedup : float;
  sk_hits : int;
  sk_shared : int;
  sk_installs : int;
  sk_reads_on : int;
  sk_reads_off : int;
  sk_time_on : float;
  sk_time_off : float;
}

let skew_measure cfg ~clients ~per_client =
  let doc =
    Xmark.generate
      ~config:{ Xmark.default_config with Xmark.scale = 1.0; fidelity = cfg.fidelity }
      ()
  in
  let store, _import = make_store cfg doc in
  let queues = skew_mix ~clients ~per_client in
  let jobs = clients * per_client in
  let distinct =
    Array.to_list queues
    |> List.concat_map (List.map (fun (s : Workload.spec) -> Path.to_string s.Workload.path))
    |> List.sort_uniq compare |> List.length
  in
  let run cache =
    Result_cache.clear ();
    let config =
      { Context.default_config with Context.validate = true; Context.result_cache = cache }
    in
    let r = Workload.run_clients ~config ~cold:true store queues in
    if r.Workload.violations <> [] then begin
      Printf.eprintf "bench --skew (cache %s): invariant violations:\n"
        (if cache then "on" else "off");
      List.iter (fun v -> Printf.eprintf "  %s\n" v) r.Workload.violations;
      exit 1
    end;
    if List.length r.Workload.jobs <> jobs then begin
      Printf.eprintf "bench --skew (cache %s): %d of %d jobs completed\n"
        (if cache then "on" else "off")
        (List.length r.Workload.jobs) jobs;
      exit 1
    end;
    r
  in
  let off = run false in
  if off.Workload.cache_hits + off.Workload.shared_jobs + off.Workload.cache_misses <> 0 then begin
    Printf.eprintf "bench --skew: cache-off run touched the front door\n";
    exit 1
  end;
  let on = run true in
  Result_cache.clear ();
  let served (r : Workload.result) =
    if r.Workload.total_time > 0.0 then float_of_int jobs /. r.Workload.total_time else 0.0
  in
  let served_on = served on and served_off = served off in
  {
    sk_clients = clients;
    sk_per_client = per_client;
    sk_jobs = jobs;
    sk_distinct = distinct;
    sk_served_on = served_on;
    sk_served_off = served_off;
    sk_speedup = (if served_off > 0.0 then served_on /. served_off else 0.0);
    sk_hits = on.Workload.cache_hits;
    sk_shared = on.Workload.shared_jobs;
    sk_installs = on.Workload.cache_misses;
    sk_reads_on = on.Workload.page_reads;
    sk_reads_off = off.Workload.page_reads;
    sk_time_on = on.Workload.total_time;
    sk_time_off = off.Workload.total_time;
  }

(* The front door must pay for itself by an order of magnitude on repeat
   traffic — the within-run ratio is machine-independent (both runs use
   the same simulated disk and the same host), so it is gated hard. *)
let skew_gate_factor = 10.0

let skew_check s =
  if s.sk_speedup < skew_gate_factor then begin
    Printf.eprintf
      "bench --skew: cache-on served %.1f queries/s vs %.1f off — %.1fx, below the %.0fx gate\n"
      s.sk_served_on s.sk_served_off s.sk_speedup skew_gate_factor;
    exit 1
  end

let skew_fields s =
  [
    ("clients", string_of_int s.sk_clients);
    ("jobs_per_client", string_of_int s.sk_per_client);
    ("jobs", string_of_int s.sk_jobs);
    ("distinct_paths", string_of_int s.sk_distinct);
    ("exponent", jfloat skew_exponent);
    ("served_per_sec_cache_on", jfloat s.sk_served_on);
    ("served_per_sec_cache_off", jfloat s.sk_served_off);
    ("speedup", jfloat s.sk_speedup);
    ("cache_hits", string_of_int s.sk_hits);
    ("shared_jobs", string_of_int s.sk_shared);
    ("cache_installs", string_of_int s.sk_installs);
    ("page_reads_cache_on", string_of_int s.sk_reads_on);
    ("page_reads_cache_off", string_of_int s.sk_reads_off);
    ("total_time_cache_on", jfloat s.sk_time_on);
    ("total_time_cache_off", jfloat s.sk_time_off);
  ]

(* Enough repeats that the fixed cost of first-executing each distinct
   statement — and its cold I/O, which both regimes pay — stops
   dominating the ratio. The tiny smoke store needs more repeats than
   the quick/full stores, whose per-execution work is bigger relative
   to the front door's per-hit overhead. The base count is sized for 8
   clients; fewer clients each take a proportional share of the 8-client
   total, so a small run is never too short to amortise that fixed
   cost. *)
let skew_per_client ~smoke ~clients =
  let base = if smoke then 128 else 32 in
  max base (((8 * base) + clients - 1) / clients)

let skew_mode ~profile ~smoke cfg ~clients out_file =
  section_header
    (Printf.sprintf "skewed repeat-query mix — %d clients, zipf(%.1f) over the q6'/q7/q15 variants"
       clients skew_exponent);
  let s = skew_measure cfg ~clients ~per_client:(skew_per_client ~smoke ~clients) in
  Printf.printf "%d jobs over %d distinct statements\n" s.sk_jobs s.sk_distinct;
  Printf.printf "cache off: %8.1f served/s  (%d page reads, %.4fs)\n" s.sk_served_off s.sk_reads_off
    s.sk_time_off;
  Printf.printf "cache on:  %8.1f served/s  (%d page reads, %.4fs)\n" s.sk_served_on s.sk_reads_on
    s.sk_time_on;
  Printf.printf "speedup %.1fx — %d hits, %d shared scans, %d installs\n" s.sk_speedup s.sk_hits
    s.sk_shared s.sk_installs;
  skew_check s;
  let out =
    jobj
      [
        ("schema", jstring Bench_schema.version);
        ("mode", jstring "workload-skew");
        ("profile", jstring profile);
        ( "config",
          jobj
            [
              ("fidelity", jfloat cfg.fidelity);
              ("page_size", string_of_int cfg.page_size);
              ("buffer", string_of_int cfg.buffer);
              ("scale", jfloat 1.0);
            ] );
        ("skew", jobj (skew_fields s));
      ]
  in
  check_json_shape out;
  let oc = open_out out_file in
  output_string oc out;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote skew summary to %s\n" out_file

let json_mode ~profile cfg out_file =
  let rows = ref [] in
  List.iter
    (fun scale ->
      let doc =
        Xmark.generate ~config:{ Xmark.default_config with Xmark.scale; fidelity = cfg.fidelity } ()
      in
      let store, import = make_store cfg doc in
      List.iter
        (fun (q : Queries.t) ->
          List.iter
            (fun (pname, plan) ->
              match run_query_full store plan q with
              | count, m ->
                rows :=
                  jobj
                    ([
                       ("query", jstring q.Queries.name);
                       ("plan", jstring pname);
                       ("scale", jfloat scale);
                       ("nodes", string_of_int import.Import.node_count);
                       ("pages", string_of_int import.Import.page_count);
                     ]
                    @ metrics_fields count m)
                  :: !rows
              | exception e ->
                Printf.eprintf "bench --json: plan %s on %s at sf %.2f raised %s\n" pname
                  q.Queries.name scale (Printexc.to_string e);
                exit 1)
            paper_plans)
        Queries.all)
    cfg.scale_factors;
  let micro_rows = swizzle_micro_rows () in
  let fused_rows = fused_micro_rows () in
  (* The skewed repeat-query summary rides along in every --json run, so
     the committed baseline carries the front door's served/s figures and
     --compare can gate them. *)
  let skew =
    skew_measure cfg ~clients:8 ~per_client:(skew_per_client ~smoke:(profile = "smoke") ~clients:8)
  in
  let out =
    jobj
      [
        ("schema", jstring Bench_schema.version);
        ("profile", jstring profile);
        ( "config",
          jobj
            [
              ("fidelity", jfloat cfg.fidelity);
              ("page_size", string_of_int cfg.page_size);
              ("buffer", string_of_int cfg.buffer);
              ("scale_factors", jarr (List.map jfloat cfg.scale_factors));
            ] );
        ("rows", jarr (List.rev !rows));
        ("micro", jarr micro_rows);
        ("micro_fused", jarr fused_rows);
        ("skew", jobj (skew_fields skew));
      ]
  in
  check_json_shape out;
  let oc = open_out out_file in
  output_string oc out;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %d benchmark rows and %d micro rows to %s\n" (List.length !rows)
    (List.length micro_rows) out_file;
  out

(* --- concurrent workload mode (--workload) ------------------------------------ *)

(* The paper's evaluation mix run as a session workload: every path of
   q6'/q7/q15 becomes one job, planned with XSchedule (speculative off,
   as in Sec. 6.2). *)
let workload_mix () =
  List.concat_map
    (fun (q : Queries.t) ->
      List.mapi
        (fun i path ->
          {
            Workload.label = Printf.sprintf "%s.%d" q.Queries.name i;
            path;
            plan = Plan.xschedule ~speculative:false ();
            timeout = None;
            ops = [];
          })
        q.Queries.paths)
    [ Queries.q6'; Queries.q7; Queries.q15 ]

let workload_mode ~profile cfg ~clients ?(writers = 0) out_file =
  section_header
    (Printf.sprintf "concurrent workload — %d closed-loop clients over the q6'/q7/q15 mix%s"
       clients
       (if writers > 0 then Printf.sprintf ", %d writer clients" writers else ""));
  let doc =
    Xmark.generate
      ~config:{ Xmark.default_config with Xmark.scale = 1.0; fidelity = cfg.fidelity }
      ()
  in
  let store, import = make_store cfg doc in
  let config = { Context.default_config with Context.validate = true } in
  (* With writers, the front door rides along so the run exercises
     cluster-granular invalidation (a commit stales only the cache
     entries whose footprint it wrote). *)
  let config_run =
    if writers > 0 then { config with Context.result_cache = true } else config
  in
  let mix = workload_mix () in
  (* Serial baseline: each job of the mix run alone, started cold. The
     concurrent run must beat [clients] independent serial passes, or the
     session layer is not sharing any I/O across queries. *)
  let serial_reads =
    List.fold_left
      (fun acc (s : Workload.spec) ->
        let r = Exec.cold_run ~config ~ordered:false store s.Workload.path s.Workload.plan in
        acc + r.Exec.metrics.Exec.page_reads)
      0 mix
  in
  (* Each client works through the whole mix, rotated by its index so the
     clients are out of phase and every query sees contention. *)
  let rotate k xs =
    let k = k mod List.length xs in
    let rec go i acc = function
      | rest when i = 0 -> rest @ List.rev acc
      | x :: rest -> go (i - 1) (x :: acc) rest
      | [] -> List.rev acc
    in
    go k [] xs
  in
  let queues = Array.init clients (fun i -> rotate i mix) in
  (* Writer clients: deterministic in-place insert/delete schedules over
     the imported NodeIDs (an LCG keeps the sample CI-stable). *)
  let writer_specs =
    if writers = 0 then []
    else begin
      let ids = import.Import.node_ids in
      let n = Array.length ids in
      let tags = Array.of_list (List.map fst (Store.tag_counts store)) in
      let state = ref 0x5DEECE66D in
      let rand bound =
        state := ((!state * 25214903917) + 11) land 0x3FFFFFFFFFFF;
        !state mod bound
      in
      List.init writers (fun w ->
          let ops =
            List.init
              (4 + rand 4)
              (fun _ ->
                if n > 1 && rand 2 = 0 then Workload.Delete_subtree ids.(1 + rand (n - 1))
                else
                  Workload.Insert_child
                    { parent = ids.(rand n); tag = tags.(rand (Array.length tags)) })
          in
          {
            Workload.label = Printf.sprintf "writer.%d" w;
            path = (List.hd mix).Workload.path;
            plan = Plan.simple;
            timeout = None;
            ops;
          })
    end
  in
  let is_writer (j : Workload.job) =
    List.exists (fun (s : Workload.spec) -> s.Workload.label = j.Workload.job_label) writer_specs
  in
  (* With writers, first measure the same reader mix without them (same
     config, pristine store — writers only run afterwards) to bound the
     latency cost the writer traffic may impose on readers. *)
  let baseline_reader_p99 =
    if writers = 0 then None
    else begin
      Result_cache.clear ();
      let r0 = Workload.run_clients ~config:config_run ~cold:true store queues in
      Result_cache.clear ();
      Some
        (Workload.percentile
           (List.map (fun (j : Workload.job) -> j.Workload.latency) r0.Workload.jobs)
           99.0)
    end
  in
  let queues =
    Array.append queues (Array.of_list (List.map (fun s -> [ s ]) writer_specs))
  in
  let r = Workload.run_clients ~config:config_run ~cold:true store queues in
  if r.Workload.violations <> [] then begin
    Printf.eprintf "bench --workload: invariant violations after the run:\n";
    List.iter (fun v -> Printf.eprintf "  %s\n" v) r.Workload.violations;
    exit 1
  end;
  let pinned = Buffer_manager.pinned_count (Store.buffer store) in
  if pinned <> 0 then begin
    Printf.eprintf "bench --workload: %d frame(s) left pinned\n" pinned;
    exit 1
  end;
  let total_jobs = List.length r.Workload.jobs in
  let expected_jobs = (clients * List.length mix) + writers in
  if total_jobs <> expected_jobs then begin
    Printf.eprintf "bench --workload: %d of %d jobs completed\n" total_jobs expected_jobs;
    exit 1
  end;
  (* Writer gates: the writers must actually commit, and reader tail
     latency must stay within an order of magnitude of the writer-free
     run — a livelocked latch or restart storm fails loudly here. *)
  let reader_p99 =
    Workload.percentile
      (List.filter_map
         (fun (j : Workload.job) -> if is_writer j then None else Some j.Workload.latency)
         r.Workload.jobs)
      99.0
  in
  if writers > 0 then begin
    if r.Workload.writer_commits = 0 then begin
      Printf.eprintf "bench --workload --writers: no writer op committed\n";
      exit 1
    end;
    match baseline_reader_p99 with
    | Some base when reader_p99 > (10.0 *. base) +. 1.0 ->
      Printf.eprintf
        "bench --workload --writers: reader p99 %.4fs blew past the writer-free baseline %.4fs\n"
        reader_p99 base;
      exit 1
    | _ -> ()
  end;
  let read_budget = clients * serial_reads in
  if serial_reads > 0 && r.Workload.page_reads >= read_budget then begin
    Printf.eprintf
      "bench --workload: no cross-query sharing: %d page reads, budget %d (%d clients x %d serial)\n"
      r.Workload.page_reads read_budget clients serial_reads;
    exit 1
  end;
  let latencies = List.map (fun (j : Workload.job) -> j.Workload.latency) r.Workload.jobs in
  let p50 = Workload.percentile latencies 50.0 in
  let p95 = Workload.percentile latencies 95.0 in
  let p99 = Workload.percentile latencies 99.0 in
  let throughput =
    if r.Workload.total_time > 0.0 then float_of_int total_jobs /. r.Workload.total_time else 0.0
  in
  let count_status st =
    List.length (List.filter (fun (j : Workload.job) -> j.Workload.status = st) r.Workload.jobs)
  in
  let yields = List.fold_left (fun a (j : Workload.job) -> a + j.Workload.yields) 0 r.Workload.jobs in
  let boosts = List.fold_left (fun a (j : Workload.job) -> a + j.Workload.boosts) 0 r.Workload.jobs in
  Printf.printf "%d jobs (%d completed, %d recovered, %d timed out), max %d concurrent, %d turns\n"
    total_jobs (count_status Workload.Completed) (count_status Workload.Recovered)
    (count_status Workload.Timed_out) r.Workload.max_concurrent r.Workload.turns;
  Printf.printf "throughput %.1f jobs/s   latency p50 %.4fs  p95 %.4fs  p99 %.4fs\n" throughput p50
    p95 p99;
  Printf.printf "page reads %d vs budget %d (%d clients x %d serial) — sharing factor %.2fx\n"
    r.Workload.page_reads read_budget clients serial_reads
    (float_of_int read_budget /. float_of_int (max 1 r.Workload.page_reads));
  Printf.printf "coalescing: %d batched reads over %d pages in %d runs; %d yields, %d boosts\n"
    r.Workload.batched_reads r.Workload.batch_pages r.Workload.coalesce_runs yields boosts;
  if writers > 0 then
    Printf.printf
      "writers: %d commits, %d latch waits, %d snapshot retries, %d cluster stales; reader p99 \
       %.4fs (writer-free %.4fs)\n"
      r.Workload.writer_commits r.Workload.latch_waits r.Workload.snapshot_retries
      r.Workload.cluster_stales reader_p99
      (Option.value baseline_reader_p99 ~default:0.0);
  let job_rows =
    List.map
      (fun (j : Workload.job) ->
        jobj
          [
            ("label", jstring j.Workload.job_label);
            ("client", string_of_int j.Workload.client);
            ("status", jstring (Workload.status_to_string j.Workload.status));
            ("count", string_of_int j.Workload.count);
            ("submitted", jfloat j.Workload.submitted);
            ("started", jfloat j.Workload.started);
            ("finished", jfloat j.Workload.finished);
            ("latency", jfloat j.Workload.latency);
            ("pin_wait", jfloat j.Workload.pin_wait);
            ("served_ticks", string_of_int j.Workload.served_ticks);
            ("starved_ticks", string_of_int j.Workload.starved_ticks);
            ("yields", string_of_int j.Workload.yields);
            ("boosts", string_of_int j.Workload.boosts);
            ("writer_commits", string_of_int j.Workload.writer_commits);
            ("latch_waits", string_of_int j.Workload.latch_waits);
            ("snapshot_retries", string_of_int j.Workload.snapshot_retries);
            ("finish_commit", string_of_int j.Workload.finish_commit);
            ("fell_back", if j.Workload.fell_back then "true" else "false");
          ])
      r.Workload.jobs
  in
  let out =
    jobj
      [
        ("schema", jstring Bench_schema.version);
        ("mode", jstring "workload");
        ("profile", jstring profile);
        ( "config",
          jobj
            [
              ("fidelity", jfloat cfg.fidelity);
              ("page_size", string_of_int cfg.page_size);
              ("buffer", string_of_int cfg.buffer);
              ("scale", jfloat 1.0);
              ("clients", string_of_int clients);
              ("nodes", string_of_int import.Import.node_count);
              ("pages", string_of_int import.Import.page_count);
            ] );
        ( "workload",
          jobj
            [
              ("clients", string_of_int clients);
              ("jobs", string_of_int total_jobs);
              ("completed", string_of_int (count_status Workload.Completed));
              ("recovered", string_of_int (count_status Workload.Recovered));
              ("timed_out", string_of_int (count_status Workload.Timed_out));
              ("throughput", jfloat throughput);
              ("latency_p50", jfloat p50);
              ("latency_p95", jfloat p95);
              ("latency_p99", jfloat p99);
              ("page_reads", string_of_int r.Workload.page_reads);
              ("serial_page_reads", string_of_int serial_reads);
              ("read_budget", string_of_int read_budget);
              ("io_time", jfloat r.Workload.io_time);
              ("cpu_time", jfloat r.Workload.cpu_time);
              ("total_time", jfloat r.Workload.total_time);
              ("seek_distance", string_of_int r.Workload.seek_distance);
              ("batched_reads", string_of_int r.Workload.batched_reads);
              ("batch_pages", string_of_int r.Workload.batch_pages);
              ("coalesce_runs", string_of_int r.Workload.coalesce_runs);
              ("max_concurrent", string_of_int r.Workload.max_concurrent);
              ("turns", string_of_int r.Workload.turns);
              ("yields", string_of_int yields);
              ("boosts", string_of_int boosts);
              ("writers", string_of_int writers);
              ("writer_commits", string_of_int r.Workload.writer_commits);
              ("latch_waits", string_of_int r.Workload.latch_waits);
              ("snapshot_retries", string_of_int r.Workload.snapshot_retries);
              ("cluster_stales", string_of_int r.Workload.cluster_stales);
              ("reader_p99", jfloat reader_p99);
            ] );
        ("jobs", jarr job_rows);
      ]
  in
  check_json_shape out;
  let oc = open_out out_file in
  output_string oc out;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %d workload job rows to %s\n" total_jobs out_file

(* --- sharded tenancy mode (--workload --shards) -------------------------------- *)

(* Multi-document tenancy through the Shard engine: M XMark tenant
   documents placed on K shards by the stable hash, closed-loop clients
   each pinned to a home tenant, the q6'/q7/q15 mix plus one
   deliberately antagonistic XScan sweep per client rotation — the
   co-located sequential scan the 2Q policy must absorb. Three hard
   gates: every submitted job must come back, no tenant's p99 may
   collapse relative to the median tenant (the cross-tenant fairness
   gate made observable), and the sharded wall-clock (the busiest
   shard's simulated disk time) must not exceed the same workload forced
   onto a single shard — sharding that loses to colocation is a routing
   bug, not a topology choice. *)
let shard_mode ~profile cfg ~clients ~shards ~tenants out_file =
  section_header
    (Printf.sprintf "sharded tenancy — %d clients, %d tenants on %d shards (q6'/q7/q15 + scan mix)"
       clients tenants shards);
  (* Many small documents model tenancy better than one big one: the
     interesting costs are routing, per-shard contention and fairness,
     not per-document depth. *)
  let tenant_fidelity = Float.max 0.002 (cfg.fidelity *. 0.1) in
  let tenant_name i = Printf.sprintf "tenant-%02d" i in
  let tenant_docs =
    List.init tenants (fun i ->
        ( tenant_name i,
          Xmark.generate
            ~config:
              { Xmark.scale = 1.0; fidelity = tenant_fidelity; seed = Xmark.default_config.Xmark.seed + i }
            () ))
  in
  let config =
    { Context.default_config with Context.validate = true; scan_resistant = true }
  in
  let mix =
    workload_mix ()
    @ [
        (* The antagonist: a full sequential sweep of the tenant's pages.
           With 2Q on, its one-shot pages stay probationary and recycle
           against themselves instead of flushing the mix's hot set. *)
        (match Queries.q7.Queries.paths with
        | p :: _ ->
          { Workload.label = "scan"; path = p; plan = Plan.xscan (); timeout = None; ops = [] }
        | [] -> assert false);
      ]
  in
  let rotate k xs =
    let k = k mod List.length xs in
    let rec go i acc = function
      | rest when i = 0 -> rest @ List.rev acc
      | x :: rest -> go (i - 1) (x :: acc) rest
      | [] -> List.rev acc
    in
    go k [] xs
  in
  let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> [] in
  let per_client = if profile = "smoke" then 4 else 6 in
  let queues =
    Array.init clients (fun i ->
        let tenant = tenant_name (i mod tenants) in
        List.map (fun spec -> { Shard.tenant; spec }) (take per_client (rotate i mix)))
  in
  let expected_jobs = Array.fold_left (fun a q -> a + List.length q) 0 queues in
  let run_topology k =
    let t =
      Shard.create ~capacity:cfg.buffer ~page_size:cfg.page_size ~shards:k tenant_docs
    in
    (t, Shard.run_clients ~config ~cold:true t queues)
  in
  let _t, r = run_topology shards in
  let wall_of (res : Shard.result) =
    List.fold_left (fun a (s : Shard.shard_stat) -> Float.max a s.Shard.io_time) 0.0
      res.Shard.shard_stats
  in
  let wall = wall_of r in
  (* The colocation reference: same tenants, same clients, one stack. *)
  let _t1, r1 = run_topology 1 in
  let single_wall = wall_of r1 in
  if r.Shard.violations <> [] then begin
    Printf.eprintf "bench --shards: invariant violations after the run:\n";
    List.iter (fun v -> Printf.eprintf "  %s\n" v) r.Shard.violations;
    exit 1
  end;
  let total_jobs = List.length r.Shard.jobs in
  if total_jobs <> expected_jobs then begin
    Printf.eprintf "bench --shards: %d of %d jobs reported\n" total_jobs expected_jobs;
    exit 1
  end;
  let active_tenants =
    List.filter (fun (ts : Shard.tenant_stat) -> ts.Shard.jobs > 0) r.Shard.tenant_stats
  in
  let p99s = List.map (fun (ts : Shard.tenant_stat) -> ts.Shard.p99) active_tenants in
  let tenant_p99 = List.fold_left Float.max 0.0 p99s in
  let tenant_p99_median = Workload.percentile p99s 50.0 in
  (* The per-tenant tail gate: a collapsing tenant shows up as a p99 far
     off the median. The absolute floor keeps tiny smoke runs (median
     near zero) from tripping on scheduler quantisation. *)
  let p99_bound = (10.0 *. tenant_p99_median) +. 1.0 in
  if tenant_p99 > p99_bound then begin
    Printf.eprintf
      "bench --shards: tenant p99 %.4fs blew past the fairness bound %.4fs (median %.4fs)\n"
      tenant_p99 p99_bound tenant_p99_median;
    exit 1
  end;
  if wall > (single_wall *. 1.05) +. 1e-6 then begin
    Printf.eprintf
      "bench --shards: sharded wall-clock %.4fs exceeds the single-shard reference %.4fs\n" wall
      single_wall;
    exit 1
  end;
  let shard_reads = r.Shard.page_reads in
  let scan_resist_hits =
    List.fold_left (fun a (s : Shard.shard_stat) -> a + s.Shard.scan_resist_hits) 0
      r.Shard.shard_stats
  in
  let throughput = if wall > 0.0 then float_of_int total_jobs /. wall else 0.0 in
  let count_status st =
    List.length
      (List.filter (fun ((_, j) : string * Workload.job) -> j.Workload.status = st) r.Shard.jobs)
  in
  Printf.printf "%d jobs (%d completed, %d recovered, %d timed out), max %d concurrent, %d turns\n"
    total_jobs (count_status Workload.Completed) (count_status Workload.Recovered)
    (count_status Workload.Timed_out) r.Shard.max_concurrent r.Shard.turns;
  Printf.printf
    "wall %.4fs (single-shard %.4fs)   throughput %.1f jobs/s   tenant p99 max %.4fs / median %.4fs\n"
    wall single_wall throughput tenant_p99 tenant_p99_median;
  Printf.printf "%d page reads over %d shards; %d rebalance moves, %d 2q protected hits\n"
    shard_reads shards r.Shard.rebalance_moves scan_resist_hits;
  let shard_rows =
    List.map
      (fun (s : Shard.shard_stat) ->
        jobj
          [
            ("shard", string_of_int s.Shard.shard);
            ("tenants", string_of_int s.Shard.tenants);
            ("page_reads", string_of_int s.Shard.page_reads);
            ("io_time", jfloat s.Shard.io_time);
            ("turns", string_of_int s.Shard.turns);
            ("scan_resist_hits", string_of_int s.Shard.scan_resist_hits);
          ])
      r.Shard.shard_stats
  in
  let tenant_rows =
    List.map
      (fun (ts : Shard.tenant_stat) ->
        jobj
          [
            ("tenant", jstring ts.Shard.tenant);
            ("shard", string_of_int ts.Shard.shard);
            ("jobs", string_of_int ts.Shard.jobs);
            ("latency_p50", jfloat ts.Shard.p50);
            ("latency_p99", jfloat ts.Shard.p99);
            ("served_ticks", string_of_int ts.Shard.served_ticks);
            ("starved_ticks", string_of_int ts.Shard.starved_ticks);
            ("cache_hits", string_of_int ts.Shard.cache_hits);
          ])
      r.Shard.tenant_stats
  in
  let out =
    jobj
      [
        ("schema", jstring Bench_schema.version);
        ("mode", jstring "workload-shards");
        ("profile", jstring profile);
        ( "config",
          jobj
            [
              ("fidelity", jfloat tenant_fidelity);
              ("page_size", string_of_int cfg.page_size);
              ("buffer", string_of_int cfg.buffer);
              ("clients", string_of_int clients);
              ("shards", string_of_int shards);
              ("tenants", string_of_int tenants);
              ("per_client", string_of_int per_client);
            ] );
        ( "shards_summary",
          jobj
            [
              ("jobs", string_of_int total_jobs);
              ("completed", string_of_int (count_status Workload.Completed));
              ("recovered", string_of_int (count_status Workload.Recovered));
              ("timed_out", string_of_int (count_status Workload.Timed_out));
              ("shard_reads", string_of_int shard_reads);
              ("tenant_p99", jfloat tenant_p99);
              ("tenant_p99_median", jfloat tenant_p99_median);
              ("rebalance_moves", string_of_int r.Shard.rebalance_moves);
              ("scan_resist_hits", string_of_int scan_resist_hits);
              ("throughput", jfloat throughput);
              ("wall_simulated", jfloat wall);
              ("single_shard_wall", jfloat single_wall);
              ("turns", string_of_int r.Shard.turns);
              ("max_concurrent", string_of_int r.Shard.max_concurrent);
              ("cache_hits", string_of_int r.Shard.cache_hits);
              ("cpu_time", jfloat r.Shard.cpu_time);
              ("io_time", jfloat r.Shard.io_time);
            ] );
        ("shards", jarr shard_rows);
        ("tenants", jarr tenant_rows);
      ]
  in
  check_json_shape out;
  let oc = open_out out_file in
  output_string oc out;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %d shard rows and %d tenant rows to %s\n" (List.length shard_rows)
    (List.length tenant_rows) out_file

(* --- baseline comparison (--compare) ------------------------------------------ *)

(* A minimal JSON reader, enough for the --json files this harness writes
   itself (there is no JSON library in the tree). *)
type jv =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of jv list
  | Jobj of (string * jv) list

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Malformed (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then fail "unterminated escape";
        (match s.[!pos] with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 >= n then fail "truncated unicode escape";
          (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
          | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
          | Some _ -> Buffer.add_char b '?'
          | None -> fail "bad unicode escape");
          pos := !pos + 4
        | c -> fail (Printf.sprintf "bad escape '%c'" c));
        incr pos;
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let keyword w v =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected '%s'" w)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Jstr (parse_string ())
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Jobj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((k, v) :: acc)
          | Some '}' ->
            incr pos;
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Jobj (members [])
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Jarr []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            items (v :: acc)
          | Some ']' ->
            incr pos;
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Jarr (items [])
      end
    | Some 't' -> keyword "true" (Jbool true)
    | Some 'f' -> keyword "false" (Jbool false)
    | Some 'n' -> keyword "null" Jnull
    | Some _ ->
      let start = !pos in
      while
        !pos < n
        && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      do
        incr pos
      done;
      if !pos = start then fail "unexpected character";
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Jnum f
      | None -> fail "bad number")
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let jget row key = match row with Jobj fields -> List.assoc_opt key fields | _ -> None
let jnum_exn what v = match v with Some (Jnum f) -> f | _ -> raise (Malformed (what ^ ": expected a number"))
let jstr_exn what v = match v with Some (Jstr s) -> s | _ -> raise (Malformed (what ^ ": expected a string"))

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  contents

let rows_of_json what j =
  match jget j "rows" with
  | Some (Jarr rows) -> rows
  | _ -> raise (Malformed (what ^ ": no rows array"))

(* Gate a fresh --json run against a committed baseline: every baseline
   plan x query x scale row must reappear with the same result [count]
   and a [total_time] no worse than [tolerance] (relative, with a small
   absolute floor absorbing wall-clock jitter in the cpu_time component —
   io_time is deterministic but total_time is not). Exits non-zero on any
   regression so CI can gate on it. *)
let compare_with_baseline ~tolerance current baseline_file =
  let baseline = parse_json (String.trim (read_file baseline_file)) in
  let base_rows = rows_of_json baseline_file baseline in
  let current_json = parse_json (String.trim current) in
  let current_rows = rows_of_json "current run" current_json in
  let key row =
    ( jstr_exn "row.query" (jget row "query"),
      jstr_exn "row.plan" (jget row "plan"),
      jnum_exn "row.scale" (jget row "scale") )
  in
  let floor_s = 0.02 in
  let failures = ref 0 in
  List.iter
    (fun brow ->
      let q, p, sc = key brow in
      let label = Printf.sprintf "%s/%s/sf%.2f" q p sc in
      match List.find_opt (fun crow -> key crow = (q, p, sc)) current_rows with
      | None ->
        incr failures;
        Printf.printf "compare: %-28s missing from the current run\n" label
      | Some crow ->
        let bc = int_of_float (jnum_exn "row.count" (jget brow "count")) in
        let cc = int_of_float (jnum_exn "row.count" (jget crow "count")) in
        if bc <> cc then begin
          incr failures;
          Printf.printf "compare: %-28s result count changed %d -> %d\n" label bc cc
        end
        else begin
          (* io_time is deterministic (simulated clock), so its floor
             only absorbs rounding in the serialised floats; total_time
             includes wall-clock cpu_time and needs the larger floor. *)
          let gate field floor_s =
            let bt = jnum_exn ("row." ^ field) (jget brow field) in
            let ct = jnum_exn ("row." ^ field) (jget crow field) in
            if ct > bt *. (1. +. tolerance) && ct -. bt > floor_s then begin
              incr failures;
              Printf.printf
                "compare: %-28s %s regressed %.4fs -> %.4fs (+%.0f%%, tolerance %.0f%%)\n"
                label field bt ct
                (100. *. (ct -. bt) /. bt)
                (100. *. tolerance)
            end
          in
          gate "total_time" floor_s;
          gate "io_time" 0.002;
          (* cpu_time is process CPU (Sys.time), but cache/SMT
             contention from co-running jobs still inflates it 50-100%
             (e.g. when the compare runs under a parallel dune build),
             so an absolute cross-run gate at the standard tolerance
             flaps. Gate it (since xnav-bench/5) as the plan's CPU
             relative to the Simple plan measured in the *same* run —
             both inflate together under load, so the ratio isolates
             plan-specific regressions such as losing the fused
             automaton — plus a loose absolute backstop (5x tolerance)
             that catches uniform slowdowns hitting every plan,
             Simple included. *)
          let cpu field = jnum_exn ("row." ^ field) in
          let simple_cpu rows =
            match List.find_opt (fun r -> key r = (q, "simple", sc)) rows with
            | Some r -> cpu "cpu_time" (jget r "cpu_time")
            | None -> 0.
          in
          let bt = cpu "cpu_time" (jget brow "cpu_time") in
          let ct = cpu "cpu_time" (jget crow "cpu_time") in
          let bs = simple_cpu base_rows and cs = simple_cpu current_rows in
          if p <> "simple" && bs > 0. && cs > 0. then begin
            let bratio = bt /. bs and cratio = ct /. cs in
            if cratio > bratio *. (1. +. tolerance) && ct -. (bratio *. cs) > 0.005 then begin
              incr failures;
              Printf.printf
                "compare: %-28s cpu_time/simple regressed %.3f -> %.3f (+%.0f%%, tolerance \
                 %.0f%%)\n"
                label bratio cratio
                (100. *. (cratio -. bratio) /. bratio)
                (100. *. tolerance)
            end
          end;
          if ct > bt *. (1. +. (5. *. tolerance)) && ct -. bt > 0.01 then begin
            incr failures;
            Printf.printf
              "compare: %-28s cpu_time regressed %.4fs -> %.4fs (+%.0f%%, backstop tolerance \
               %.0f%%)\n"
              label bt ct
              (100. *. (ct -. bt) /. bt)
              (100. *. 5. *. tolerance)
          end
        end)
    base_rows;
  (* Index gate (since xnav-bench/4): the structural index must actually
     pay off on the selective query — q15's page reads with the index
     plan must stay below 20% of the XSchedule plan's at every scale the
     current run covers. Computed from the current rows, not the
     baseline, so the gate always tests the run at hand. *)
  let row_for q p sc = List.find_opt (fun r -> key r = (q, p, sc)) current_rows in
  let index_scales =
    List.filter_map
      (fun r ->
        let q, p, sc = key r in
        if q = "q15" && p = "xindex" then Some sc else None)
      current_rows
    |> List.sort_uniq compare
  in
  List.iter
    (fun sc ->
      match (row_for "q15" "xindex" sc, row_for "q15" "xschedule" sc) with
      | Some irow, Some srow ->
        let ip = jnum_exn "row.page_reads" (jget irow "page_reads") in
        let sp = jnum_exn "row.page_reads" (jget srow "page_reads") in
        if ip >= 0.2 *. sp then begin
          incr failures;
          Printf.printf
            "compare: q15/xindex/sf%.2f           page reads %.0f not < 20%% of xschedule's %.0f\n"
            sc ip sp
        end
      | _ -> ())
    index_scales;
  (* Skew gate (since xnav-bench/6): the result-cache front door must
     serve the skewed repeat-query mix at least [skew_gate_factor] times
     faster than cache-off. The within-run ratio is gated hard (both
     runs share the simulated disk and the host, so it is stable); the
     cross-run comparison against the baseline's ratio only backstops at
     a loose 5x tolerance, because served/s includes wall-clock CPU. *)
  (match jget current_json "skew" with
  | None ->
    incr failures;
    Printf.printf "compare: current run has no skew section (schema %s)\n" Bench_schema.version
  | Some skew ->
    let speedup = jnum_exn "skew.speedup" (jget skew "speedup") in
    if speedup < skew_gate_factor then begin
      incr failures;
      Printf.printf "compare: skew speedup %.1fx below the %.0fx front-door gate\n" speedup
        skew_gate_factor
    end;
    (match jget baseline "skew" with
    | None -> ()
    | Some bskew ->
      let bspeedup = jnum_exn "skew.speedup" (jget bskew "speedup") in
      if speedup < bspeedup /. (1. +. (5. *. tolerance)) then begin
        incr failures;
        Printf.printf
          "compare: skew speedup regressed %.1fx -> %.1fx (backstop tolerance %.0f%%)\n" bspeedup
          speedup
          (100. *. 5. *. tolerance)
      end));
  if !failures = 0 then
    Printf.printf "compare: no regressions vs %s (%d rows, tolerance %.0f%%)\n" baseline_file
      (List.length base_rows) (100. *. tolerance)
  else begin
    Printf.printf "compare: %d regression(s) vs %s\n" !failures baseline_file;
    exit 1
  end

(* --- Bechamel microbenches ------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  section_header "Bechamel microbenches (one per table/figure, plus operator kernels)";
  (* Fixture shared by the query benches: a small XMark store. *)
  let cfg = { quick_config with fidelity = 0.005 } in
  let store, _ = xmark_store cfg ~scale:1.0 in
  let query_test name plan (q : Queries.t) =
    Test.make ~name (Staged.stage (fun () -> ignore (run_query store plan q)))
  in
  let fig_tests =
    List.concat_map
      (fun (fig, q) ->
        List.map
          (fun (pname, plan) -> query_test (Printf.sprintf "%s-%s-%s" fig q.Queries.name pname) plan q)
          paper_plans)
      [ ("fig9", Queries.q6'); ("fig10", Queries.q7); ("fig11", Queries.q15) ]
  in
  let ordpath_a = Xnav_xml.Ordpath.child (Xnav_xml.Ordpath.child Xnav_xml.Ordpath.root 3) 5 in
  let ordpath_b = Xnav_xml.Ordpath.next_sibling ordpath_a in
  let record =
    Xnav_store.Node_record.Core
      {
        tag = Xnav_xml.Tag.of_string "bench";
        ordpath = ordpath_a;
        parent = Some 1;
        first_child = Some 2;
        last_child = Some 9;
        next_sibling = None;
        prev_sibling = Some 0;
      }
  in
  let encoded = Xnav_store.Node_record.encode record in
  let kernel_tests =
    [
      Test.make ~name:"kernel-ordpath-compare"
        (Staged.stage (fun () -> ignore (Xnav_xml.Ordpath.compare ordpath_a ordpath_b)));
      Test.make ~name:"kernel-ordpath-between"
        (Staged.stage (fun () -> ignore (Xnav_xml.Ordpath.between ordpath_a ordpath_b)));
      Test.make ~name:"kernel-record-decode"
        (Staged.stage (fun () -> ignore (Xnav_store.Node_record.decode encoded)));
      Test.make ~name:"kernel-record-encode"
        (Staged.stage (fun () -> ignore (Xnav_store.Node_record.encode record)));
    ]
  in
  (* Swizzled vs unswizzled intra-cluster step throughput (child and
     descendant cursors over one pinned view, 8 re-walks per run). *)
  let swizzle_tests =
    List.concat_map
      (fun (label, store, _pages) ->
        List.concat_map
          (fun (aname, axis) ->
            List.map
              (fun (mode, on) ->
                Test.make
                  ~name:(Printf.sprintf "swizzle-%s-%s-%s" mode aname label)
                  (Staged.stage (fun () ->
                       Store.set_swizzling store on;
                       ignore (cursor_walk store ~reps:8 axis))))
              [ ("on", true); ("off", false) ])
          swizzle_axes)
      (swizzle_fixtures ())
  in
  let tests =
    Test.make_grouped ~name:"xnav" ~fmt:"%s/%s" (fig_tests @ kernel_tests @ swizzle_tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let benchmark_cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all benchmark_cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "%-36s %16s\n" "benchmark" "ns/run";
  Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (name, ols_result) ->
         match Analyze.OLS.estimates ols_result with
         | Some [ est ] -> Printf.printf "%-36s %16.1f\n" name est
         | Some _ | None -> Printf.printf "%-36s %16s\n" name "n/a")

(* --- main ------------------------------------------------------------------------- *)

let sections cfg =
  let sweep_data = lazy (sweep cfg) in
  [
    ("example1", fun () -> example1 ());
    ("table1", fun () -> table1 ());
    ("table2", fun () -> table2 cfg);
    ("trace", fun () -> trace_section ());
    ("fig9", fun () -> figure (Lazy.force sweep_data) 9 Queries.q6');
    ("fig10", fun () -> figure (Lazy.force sweep_data) 10 Queries.q7);
    ("fig11", fun () -> figure (Lazy.force sweep_data) 11 Queries.q15);
    ("table3", fun () -> table3 (Lazy.force sweep_data));
    ("abl-k", fun () -> ablation_k cfg);
    ("abl-sched", fun () -> ablation_sched cfg);
    ("abl-batch", fun () -> ablation_batching cfg);
    ("abl-clust", fun () -> ablation_clustering cfg);
    ("abl-buf", fun () -> ablation_buffer cfg);
    ("abl-fb", fun () -> ablation_fallback cfg);
    ("abl-multi", fun () -> ablation_multi cfg);
    ("abl-conc", fun () -> ablation_concurrency cfg);
    ("abl-rewrite", fun () -> ablation_rewrite cfg);
    ("abl-decay", fun () -> ablation_decay cfg);
    ("abl-repl", fun () -> ablation_replacement cfg);
    ("abl-estimate", fun () -> ablation_estimate cfg);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let smoke = List.mem "--smoke" args in
  let rec find_value flag = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> find_value flag rest
    | [] -> None
  in
  let filter = find_value "--filter" args in
  let compare_file = find_value "--compare" args in
  let json =
    (* --compare needs a fresh run to compare; without an explicit --json
       target the rows land in a scratch file. *)
    match (find_value "--json" args, compare_file) with
    | None, Some _ -> Some "bench-current.json"
    | j, _ -> j
  in
  if List.mem "micro" args then micro ()
  else if List.mem "--micro" args then begin
    (* The fused-chain micro tier on its own: per-extension CPU cost of
       the fused automaton vs the XStep iterator chain. Exits non-zero
       on non-finite measurements (jfloat raises) — the CI smoke step. *)
    section_header "fused vs iterator chain (ns per extension)";
    try
      let rows = fused_micro_rows () in
      List.iter print_endline rows;
      check_json_shape (jarr rows)
    with Malformed msg ->
      Printf.eprintf "bench --micro: malformed output: %s\n" msg;
      exit 1
  end
  else begin
    let profile, cfg =
      if smoke then ("smoke", smoke_config)
      else if quick then ("quick", quick_config)
      else ("full", full_config)
    in
    if List.mem "--workload" args then begin
      let clients =
        match find_value "--clients" args with
        | None -> 8
        | Some v -> (
          match int_of_string_opt v with
          | Some n when n > 0 -> n
          | _ ->
            Printf.eprintf "bench --clients: not a positive integer: %s\n" v;
            exit 1)
      in
      let writers =
        match find_value "--writers" args with
        | None -> 0
        | Some v -> (
          match int_of_string_opt v with
          | Some n when n >= 0 -> n
          | _ ->
            Printf.eprintf "bench --writers: not a non-negative integer: %s\n" v;
            exit 1)
      in
      let pos_int flag default =
        match find_value flag args with
        | None -> default
        | Some v -> (
          match int_of_string_opt v with
          | Some n when n > 0 -> n
          | _ ->
            Printf.eprintf "bench %s: not a positive integer: %s\n" flag v;
            exit 1)
      in
      let out_file = Option.value (find_value "--json" args) ~default:"bench-workload.json" in
      try
        if List.mem "--shards" args then begin
          let shards = pos_int "--shards" 4 in
          let tenants = pos_int "--tenants" (2 * shards) in
          shard_mode ~profile cfg ~clients ~shards ~tenants out_file
        end
        else if List.mem "--skew" args then skew_mode ~profile ~smoke cfg ~clients out_file
        else workload_mode ~profile cfg ~clients ~writers out_file
      with Malformed msg ->
        Printf.eprintf "bench --workload: malformed output: %s\n" msg;
        exit 1
    end
    else
    match json with
    | Some out_file -> begin
      try
        let out = json_mode ~profile cfg out_file in
        match compare_file with
        | None -> ()
        | Some baseline ->
          let tolerance =
            match find_value "--tolerance" args with
            | Some t -> (
              match float_of_string_opt t with
              | Some f when f >= 0.0 -> f
              | _ ->
                Printf.eprintf "bench --tolerance: not a non-negative number: %s\n" t;
                exit 1)
            | None -> 0.25
          in
          compare_with_baseline ~tolerance out baseline
      with Malformed msg ->
        Printf.eprintf "bench --json: malformed output: %s\n" msg;
        exit 1
    end
    | None ->
      Printf.printf
        "xnav benchmark harness — fidelity %.3f, %d-byte pages, %d-page buffer\n\
         (simulated seconds from the deterministic disk model; see EXPERIMENTS.md)\n"
        cfg.fidelity cfg.page_size cfg.buffer;
      let sections = sections cfg in
      (match filter with
      | Some name -> begin
        match List.assoc_opt name sections with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown section %s; available: %s\n" name
            (String.concat ", " (List.map fst sections));
          exit 1
      end
      | None -> List.iter (fun (_, f) -> f ()) sections)
  end
