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
module Counters = Xnav_core.Counters
module Result_cache = Xnav_core.Result_cache
module Bench_schema = Xnav_core.Bench_schema
module Xmark = Xnav_xmark.Gen
module Queries = Xnav_xmark.Queries
module Workload = Xnav_workload.Workload
module Shard = Xnav_workload.Shard
module Json = Xnav_bench.Json
module Gate = Xnav_bench.Gate

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

let rotate k xs =
  let k = k mod List.length xs in
  List.filteri (fun i _ -> i >= k) xs @ List.filteri (fun i _ -> i < k) xs

(* A fresh disk, buffer pool and store over [doc]. *)
let attach ?strategy ?payload ?policy ?replacement ~page_size ~capacity doc =
  let disk = Disk.create ~config:{ Disk.default_config with Disk.page_size } () in
  let import = Import.run ?strategy ?payload disk doc in
  let buffer = Buffer_manager.create ~capacity ?policy ?replacement disk in
  (Store.attach buffer import, import)

let make_store ?strategy cfg doc =
  attach ?strategy ~page_size:cfg.page_size ~capacity:cfg.buffer doc

let xmark_doc cfg ~scale =
  Xmark.generate ~config:{ Xmark.default_config with Xmark.scale; fidelity = cfg.fidelity } ()

let xmark_store ?strategy cfg ~scale = make_store ?strategy cfg (xmark_doc cfg ~scale)

(* Evaluate a benchmark query, each path started cold as in the paper
   (and on a collected heap with [collect]); return the result count and
   the paths' metrics combined. *)
let run_query ?config ?(collect = false) store plan (q : Queries.t) =
  List.fold_left
    (fun (count, m) path ->
      if collect then Gc.full_major ();
      let r = Exec.cold_run ?config ~ordered:false store path plan in
      (count + r.Exec.count, Counters.add m r.Exec.metrics))
    (0, Counters.create ()) q.Queries.paths

(* One line of total times, every paper plan on [q]. *)
let plan_totals fmt store q =
  List.iter
    (fun (_, plan) -> Printf.printf fmt (snd (run_query store plan q)).Exec.total_time)
    paper_plans;
  print_newline ()

(* --- figures 9, 10, 11 and table 3 ------------------------------------------ *)

(* One shared sweep: for each scaling factor, build the document once and
   run every query with every plan, each run on a collected heap. With
   [repetitions] > 1 a row keeps the metrics of its median-CPU run, since
   one ~20 ms run is at the mercy of the GC work the previous row left
   behind; the plan order rotates between repetitions, so no plan always
   runs first after the document is generated, and every field but the
   CPU-derived times must agree across the repetitions. *)
let sweep ?(repetitions = 1) cfg =
  (* An 8 MB minor heap: over 6-10 --quick processes on a 2-vCPU host, the
     rows' CPU ratio to Simple then spread 1.12-1.21x between processes on
     average, against 1.28-1.34x with the default 2 MB. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
  List.map
    (fun scale ->
      let store, import = xmark_store cfg ~scale in
      let runs = Hashtbl.create 16 in
      for rep = 0 to repetitions - 1 do
        List.iter
          (fun (q : Queries.t) ->
            List.iter
              (fun (pname, plan) ->
                match run_query ~collect:true store plan q with
                | r -> Hashtbl.add runs (q.Queries.name, pname) r
                | exception e ->
                  Printf.eprintf "bench: plan %s on %s at sf %.2f raised %s\n" pname
                    q.Queries.name scale (Printexc.to_string e);
                  exit 1)
              (rotate rep paper_plans))
          Queries.all
      done;
      let median (q : Queries.t) (pname, _) =
        let cpu (_, (m : Exec.metrics)) = m.Exec.cpu_time in
        let reps = Hashtbl.find_all runs (q.Queries.name, pname) in
        let reps = List.sort (fun a b -> compare (cpu a) (cpu b)) reps in
        let stable (count, m) =
          let fields = Counters.bench_fields m in
          (count, List.filter (fun (k, _) -> k <> "cpu_time" && k <> "total_time") fields)
        in
        if List.exists (fun r -> stable r <> stable (List.hd reps)) reps then begin
          Printf.eprintf "bench: %s/%s/sf%.2f: a non-CPU field differs across repetitions\n"
            q.Queries.name pname scale;
          exit 1
        end;
        (pname, List.nth reps (repetitions / 2))
      in
      let row (q : Queries.t) = (q.Queries.name, List.map (median q) paper_plans) in
      (scale, import.Import.node_count, import.Import.page_count, List.map row Queries.all))
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
      let t name = (snd (List.assoc name cells)).Exec.total_time in
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
          (fun (pname, (_, m)) ->
            Printf.printf "%-6s %-9s | %10.4f %10.4f %5.0f%%\n" qname pname m.Exec.total_time
              m.Exec.cpu_time
              (100. *. m.Exec.cpu_time /. Float.max 1e-9 m.Exec.total_time))
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
  let store, import =
    attach ~strategy:(Import.Explicit assignment) ~page_size:512 ~capacity:16 doc
  in
  let disk = Buffer_manager.disk (Store.buffer store) in
  let traced plan =
    Disk.set_trace disk true;
    let r = Exec.cold_run store (Xpath_parser.parse "//node()") plan in
    (r, Disk.trace disk, (Disk.stats disk).Disk.seek_distance)
  in
  let naive, naive_order, naive_seek = traced Plan.simple in
  let sched, sched_order, sched_seek = traced (Plan.xschedule ()) in
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
  let store, _ = xmark_store cfg ~scale:1.0 in
  Printf.printf "%-5s %-70s %8s\n" "No." "XPath queries" "count";
  List.iter
    (fun (q : Queries.t) ->
      let count, _ = run_query store Plan.simple q in
      let desc = q.Queries.description in
      let desc = if String.length desc > 70 then String.sub desc 0 70 else desc in
      Printf.printf "%-5s %-70s %8d\n" (String.uppercase_ascii q.Queries.name) desc count)
    Queries.all

(* --- examples 6/7: operator trace -------------------------------------------- *)

let trace_section () =
  section_header "Examples 6/7: operator cooperation trace for /A//B on a clustered tree";
  let e = Tree.elt in
  (* A small document in the spirit of the paper's Fig. 5. *)
  let doc = e "R" [ e "A" [ e "B" []; e "C" [ e "B" [] ] ]; e "C" [ e "A" [ e "B" [] ] ] ] in
  let path = Path.from_root_element (Xpath_parser.parse "/R/A//B") in
  List.iter
    (fun (label, plan) ->
      Printf.printf "--- %s plan ---\n" label;
      let store, import =
        attach ~payload:120 ~strategy:Import.Bfs ~page_size:256 ~capacity:16 doc
      in
      let r = Exec.cold_run ~trace:(fun msg -> Printf.printf "  %s\n" msg) store path plan in
      Printf.printf "  => %d result nodes from %d pages\n" r.Exec.count import.Import.page_count)
    [ ("XSchedule (Example 6)", Plan.xschedule ()); ("XScan (Example 7)", Plan.xscan ()) ]

(* --- ablations ----------------------------------------------------------------- *)

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
      let config = { Context.default_config with Context.k } in
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
  let doc = xmark_doc cfg ~scale:1.0 in
  List.iter
    (fun policy ->
      let store, _ =
        attach ~strategy:(Import.Scattered 11) ~policy ~page_size:cfg.page_size
          ~capacity:cfg.buffer doc
      in
      let _, m = run_query store (Plan.xschedule ~speculative:false ()) Queries.q6' in
      let stats = Disk.stats (Buffer_manager.disk (Store.buffer store)) in
      Printf.printf "%-10s %10.4f %12d %10d\n"
        (Io_scheduler.policy_to_string policy)
        m.Exec.io_time stats.Disk.seek_distance stats.Disk.random_reads)
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
            { Context.default_config with Context.coalesce_window; scan_threshold }
          in
          let results =
            List.map
              (fun q -> run_query ~config store (Plan.xschedule ~speculative:false ()) q)
              queries
          in
          let agg =
            List.fold_left (fun acc (_, m) -> Counters.add acc m) (Counters.create ()) results
          in
          let io i = (snd (List.nth results i)).Exec.io_time in
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
      plan_totals " %10.4f " store Queries.q6')
    [ Import.Dfs; Import.Bfs; Import.Scattered 11 ]

let ablation_buffer cfg =
  section_header "Ablation: buffer capacity (Q7)";
  let doc = xmark_doc cfg ~scale:1.0 in
  Printf.printf "%-8s %11s %11s %11s\n" "pages" "simple" "xschedule" "xscan";
  List.iter
    (fun capacity ->
      let store, _ = make_store { cfg with buffer = capacity } doc in
      Printf.printf "%-8d" capacity;
      plan_totals " %10.4f " store Queries.q7)
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
  let sep_count, sep = run_query store (Plan.xscan ()) Queries.q7 in
  let multi = Xnav_core.Multi.run ~cold:true ~ordered:false store paths in
  let multi_count = Array.fold_left ( + ) 0 multi.Xnav_core.Multi.counts in
  let m = multi.Xnav_core.Multi.metrics in
  Printf.printf "%-22s %10s %12s %10s\n" "strategy" "count" "page-reads" "total[s]";
  Printf.printf "%-22s %10d %12d %10.4f\n" "three XScan plans" sep_count
    (3 * import.Import.page_count) sep.Exec.total_time;
  Printf.printf "%-22s %10d %12d %10.4f\n" "one shared scan" multi_count
    m.Exec.page_reads m.Exec.total_time;
  Printf.printf "shared scan saves %.1fx of the I/O passes\n"
    (float_of_int (3 * import.Import.page_count) /. Float.max 1.0 (float_of_int m.Exec.page_reads))

let ablation_concurrency cfg =
  section_header
    "Ablation (outlook Sec. 7): two concurrent queries, interleaved vs sequential";
  let store, _ = xmark_store cfg ~scale:1.0 in
  let p1 = List.hd Queries.q7.Queries.paths in
  let p2 = List.nth Queries.q7.Queries.paths 1 in
  let sequential plan =
    let a = Exec.cold_run ~ordered:false store p1 plan in
    let b = Exec.run ~ordered:false store p2 plan in
    let m = Counters.add a.Exec.metrics b.Exec.metrics in
    (m.Exec.io_time, m.Exec.seek_distance)
  in
  (* Both queries admitted at once, one result per turn (quantum 0). *)
  let interleaved plan =
    let spec path =
      { Workload.label = Path.to_string path; path; plan; timeout = None; ops = [] }
    in
    let r = Workload.run ~quantum:0.0 ~ordered:false ~cold:true store [ spec p1; spec p2 ] in
    (r.Workload.io_time, r.Workload.metrics.seek_distance)
  in
  Printf.printf "%-24s %12s %12s\n" "configuration" "io[s]" "seek-dist";
  let show label (io, seek) = Printf.printf "%-24s %12.4f %12d\n" label io seek in
  show "2 x xscan, sequential" (sequential (Plan.xscan ()));
  show "2 x xscan, concurrent" (interleaved (Plan.xscan ()));
  show "2 x xschedule, sequential" (sequential (Plan.xschedule ~speculative:false ()));
  show "2 x xschedule, concurrent" (interleaved (Plan.xschedule ~speculative:false ()));
  print_endline
    "(one result per turn: concurrent scans drag the disk arm between two\n\
     sweep positions — the interference the paper warns about for scan-only\n\
     designs. Concurrent schedules share one request queue and seek less\n\
     than concurrent scans, but neither pair beats running back to back)"

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
  let store, _ = xmark_store cfg ~scale:0.5 in
  let q = Queries.q6' in
  let measure label =
    Printf.printf "%-28s %9d pages |" label (Store.page_count store);
    plan_totals " %10.4f" store q
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
  let doc = xmark_doc cfg ~scale:1.0 in
  let path = List.hd Queries.q7.Queries.paths in
  Printf.printf "%-8s %11s %10s %10s\n" "policy" "total[s]" "hits" "misses";
  List.iter
    (fun replacement ->
      let store, _ = attach ~replacement ~page_size:cfg.page_size ~capacity:64 doc in
      let r = Exec.cold_run ~ordered:false store path Plan.simple in
      let stats = Buffer_manager.stats (Store.buffer store) in
      Printf.printf "%-8s %11.4f %10d %10d\n"
        (Buffer_manager.replacement_to_string replacement)
        r.Exec.metrics.Exec.total_time stats.Buffer_manager.hits stats.Buffer_manager.misses)
    Buffer_manager.all_replacements

let ablation_estimate cfg =
  section_header
    "Ablation: cardinality estimation — per-tag bound (v1) vs path summary (v2) vs actual";
  let store, import = xmark_store cfg ~scale:1.0 in
  Printf.printf "%-34s %12s %12s %12s\n" "path" "v1 bound" "v2 summary" "actual";
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
      let per_step = Xnav_store.Path_partition.step_counts import.Import.partition path in
      let v2 = per_step.(Array.length per_step - 1) in
      let actual = (Exec.cold_run ~ordered:false store path Plan.simple).Exec.count in
      let label = Path.to_string path in
      let label =
        if String.length label > 34 then String.sub label (String.length label - 34) 34
        else label
      in
      Printf.printf "%-34s %12d %12d %12d\n" label v1 v2 actual)
    (List.concat_map (fun (q : Queries.t) -> q.Queries.paths) Queries.all);
  print_endline
    "(v1 sums per-tag totals over the steps — a wild over-estimate; v2 sums\n\
     the live counts of the summary classes the whole path selects, which\n\
     is exact for every downward path)"

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
      let store, import = attach ~payload ~page_size:4096 ~capacity:256 doc in
      (label, store, import.Import.page_count))
    [ ("1page", one_page, 3800); ("100page", hundred_pages, 3400) ]

let swizzle_axes = [ ("child", Xnav_xml.Axis.Child); ("descendant", Xnav_xml.Axis.Descendant) ]

(* --- machine-readable output (--json) --------------------------------------- *)

let metrics_fields count (m : Exec.metrics) =
  ("count", Json.Int count)
  :: List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Counters.Int i -> Json.Int i
           | Float f -> Json.Float f
           | Bool b -> Json.Bool b ))
       (Counters.bench_fields m)

(* Every document starts with the schema, its mode (the --json rows
   document has none), the profile and the configuration. *)
let document ?mode ~profile cfg config sections =
  Json.Obj
    ([ ("schema", Json.String Bench_schema.version) ]
    @ Option.fold ~none:[] ~some:(fun m -> [ ("mode", Json.String m) ]) mode
    @ [
        ("profile", Json.String profile);
        ( "config",
          Json.Obj
            ([
               ("fidelity", Json.Float cfg.fidelity);
               ("page_size", Json.Int cfg.page_size);
               ("buffer", Json.Int cfg.buffer);
             ]
            @ config) );
      ]
    @ sections)

(* Evaluate the run's gates over the document it has just written, so a
   failing run still leaves its artefact; exit 1 on any failure. *)
let gate ~run ?baseline ?(tolerance = 0.25) doc =
  match Gate.evaluate ~run ?baseline ~tolerance doc with
  | [] -> ()
  | failures ->
    List.iter (Format.printf "%a@." Gate.pp_failure) failures;
    Printf.printf "%d gate failure(s)\n" (List.length failures);
    exit 1

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
    let store, import = attach ~page_size:4096 ~capacity:256 doc in
    (store, import.Import.page_count)
  in
  let step axis tag = { Path.axis; test = Path.Name (Xnav_xml.Tag.of_string tag) } in
  [
    ("deep-child-12", attach deep, List.init 12 (fun _ -> step Xnav_xml.Axis.Child "a"));
    ("deep-child-6", attach deep, List.init 6 (fun _ -> step Xnav_xml.Axis.Child "a"));
    ("bushy-descendant", attach bushy, [ step Xnav_xml.Axis.Descendant "text" ]);
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
      Json.Obj
        [
          ("name", Json.String name);
          ("pages", Json.Int pages);
          ("steps", Json.Int (Path.length path));
          ("transitions", Json.Int transitions);
          ("fused_ns_per_ext", Json.Float fused_ns);
          ("chain_ns_per_ext", Json.Float chain_ns);
          ("speedup", Json.Float (chain_ns /. Float.max 1e-9 fused_ns));
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
          Json.Obj
            [
              ("name", Json.String (Printf.sprintf "%s-step-%s" aname label));
              ("pages", Json.Int pages);
              ("swizzled_ns", Json.Float on);
              ("unswizzled_ns", Json.Float off);
              ("speedup", Json.Float (off /. Float.max 1.0 on));
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

let spec ?(plan = Plan.xschedule ()) label path =
  { Workload.label; path; plan; timeout = None; ops = [] }

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
          spec (Printf.sprintf "%s#c%d.%d" label c j) path))

let print_violations what = List.iter (Printf.eprintf "bench %s: invariant violation: %s\n" what)

let skew_measure cfg ~clients ~per_client =
  let store, _ = xmark_store cfg ~scale:1.0 in
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
    print_violations ("--skew, cache " ^ if cache then "on" else "off") r.Workload.violations;
    r
  in
  let off = run false in
  let on = run true in
  Result_cache.clear ();
  let served (r : Workload.result) =
    let t = r.Workload.metrics.total_time in
    if t > 0.0 then float_of_int jobs /. t else 0.0
  in
  let served_on = served on and served_off = served off in
  let both f = f on + f off in
  [
    ("clients", Json.Int clients);
    ("jobs_per_client", Json.Int per_client);
    ("jobs", Json.Int jobs);
    ("distinct_paths", Json.Int distinct);
    ("exponent", Json.Float skew_exponent);
    ("served_per_sec_cache_on", Json.Float served_on);
    ("served_per_sec_cache_off", Json.Float served_off);
    ("speedup", Json.Float (if served_off > 0.0 then served_on /. served_off else 0.0));
    ("cache_hits", Json.Int on.Workload.metrics.cache_hits);
    ("shared_jobs", Json.Int on.Workload.shared_jobs);
    ("cache_installs", Json.Int on.Workload.metrics.cache_misses);
    ("page_reads_cache_on", Json.Int on.Workload.page_reads);
    ("page_reads_cache_off", Json.Int off.Workload.page_reads);
    ("total_time_cache_on", Json.Float on.Workload.metrics.total_time);
    ("total_time_cache_off", Json.Float off.Workload.metrics.total_time);
    ("violations", Json.Int (both (fun r -> List.length r.Workload.violations)));
    ("completed", Json.Int (both (fun r -> List.length r.Workload.jobs)));
    ( "front_door_cache_off",
      Json.Int
        (off.Workload.metrics.cache_hits + off.Workload.shared_jobs
       + off.Workload.metrics.cache_misses) );
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
  let fields = skew_measure cfg ~clients ~per_client:(skew_per_client ~smoke ~clients) in
  let v key = Json.num (List.assoc key fields) in
  let n key = int_of_float (v key) in
  Printf.printf "%d jobs over %d distinct statements\n" (n "jobs") (n "distinct_paths");
  Printf.printf "cache off: %8.1f served/s  (%d page reads, %.4fs)\n" (v "served_per_sec_cache_off")
    (n "page_reads_cache_off") (v "total_time_cache_off");
  Printf.printf "cache on:  %8.1f served/s  (%d page reads, %.4fs)\n" (v "served_per_sec_cache_on")
    (n "page_reads_cache_on") (v "total_time_cache_on");
  Printf.printf "speedup %.1fx — %d hits, %d shared scans, %d installs\n" (v "speedup")
    (n "cache_hits") (n "shared_jobs") (n "cache_installs");
  let doc =
    document ~mode:"workload-skew" ~profile cfg
      [ ("scale", Json.Float 1.0) ]
      [ ("skew", Json.Obj fields) ]
  in
  Json.write out_file doc;
  Printf.printf "wrote skew summary to %s\n" out_file;
  gate ~run:Gate.Skew doc

let json_mode ~profile cfg out_file =
  let rows =
    List.concat_map
      (fun (scale, nodes, pages, rows) ->
        List.concat_map
          (fun (qname, cells) ->
            List.map
              (fun (pname, (count, m)) ->
                Json.Obj
                  ([
                     ("query", Json.String qname);
                     ("plan", Json.String pname);
                     ("scale", Json.Float scale);
                     ("nodes", Json.Int nodes);
                     ("pages", Json.Int pages);
                   ]
                  @ metrics_fields count m))
              cells)
          rows)
      (sweep ~repetitions:5 cfg)
  in
  let micro_rows = swizzle_micro_rows () in
  let fused_rows = fused_micro_rows () in
  (* The skewed repeat-query summary rides along in every --json run, so
     the committed baseline carries the front door's served/s figures and
     --compare can gate them. *)
  let skew =
    skew_measure cfg ~clients:8 ~per_client:(skew_per_client ~smoke:(profile = "smoke") ~clients:8)
  in
  let doc =
    document ~profile cfg
      [ ("scale_factors", Json.List (List.map (fun f -> Json.Float f) cfg.scale_factors)) ]
      [
        ("rows", Json.List rows);
        ("micro", Json.List micro_rows);
        ("micro_fused", Json.List fused_rows);
        ("skew", Json.Obj skew);
      ]
  in
  Json.write out_file doc;
  Printf.printf "wrote %d benchmark rows and %d micro rows to %s\n" (List.length rows)
    (List.length micro_rows) out_file;
  doc

(* --- concurrent workload mode (--workload) ------------------------------------ *)

(* The paper's evaluation mix run as a session workload: every path of
   q6'/q7/q15 becomes one job, planned with speculative XSchedule. *)
let workload_mix () = List.map (fun (label, path) -> spec label path) (skew_variants ())

(* Print the jobs' outcomes and return them as summary fields. *)
let tally jobs ~max_concurrent ~turns =
  let count st = List.length (List.filter (fun j -> j.Workload.status = st) jobs) in
  let c = count Workload.Completed and r = count Workload.Recovered in
  let t = count Workload.Timed_out in
  Printf.printf "%d jobs (%d completed, %d recovered, %d timed out), max %d concurrent, %d turns\n"
    (List.length jobs) c r t max_concurrent turns;
  [ ("completed", Json.Int c); ("recovered", Json.Int r); ("timed_out", Json.Int t) ]

let workload_mode ~profile cfg ~clients ~writers out_file =
  section_header
    (Printf.sprintf "concurrent workload — %d closed-loop clients over the q6'/q7/q15 mix%s"
       clients
       (if writers > 0 then Printf.sprintf ", %d writer clients" writers else ""));
  let store, import = xmark_store cfg ~scale:1.0 in
  let config = { Context.default_config with Context.validate = true } in
  (* With writers, the front door rides along so the run exercises
     cluster-granular invalidation (a commit stales only the cache
     entries whose footprint it wrote). *)
  let config_run = { config with Context.result_cache = writers > 0 } in
  let mix = workload_mix () in
  (* Serial baseline: each job of the mix run alone, started cold. *)
  let serial_reads =
    List.fold_left
      (fun acc (s : Workload.spec) ->
        let r = Exec.cold_run ~config ~ordered:false store s.Workload.path s.Workload.plan in
        acc + r.Exec.metrics.Exec.page_reads)
      0 mix
  in
  (* Each client works through the whole mix, rotated by its index so the
     clients are out of phase and every query sees contention. *)
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
          { (spec ~plan:Plan.simple (Printf.sprintf "writer.%d" w) (List.hd mix).Workload.path) with
            Workload.ops })
    end
  in
  (* With writers, first measure the same reader mix without them (same
     config, pristine store — writers only run afterwards): the reader
     tail latency the writer traffic may cost is gated against it. *)
  let writer_free_p99 =
    if writers = 0 then 0.0
    else begin
      Result_cache.clear ();
      let r0 = Workload.run_clients ~config:config_run ~cold:true store queues in
      Result_cache.clear ();
      Workload.percentile
        (List.map (fun (j : Workload.job) -> j.Workload.latency) r0.Workload.jobs)
        99.0
    end
  in
  let queues =
    Array.append queues (Array.of_list (List.map (fun s -> [ s ]) writer_specs))
  in
  let r = Workload.run_clients ~config:config_run ~cold:true store queues in
  print_violations "--workload" r.Workload.violations;
  let pinned = Buffer_manager.pinned_count (Store.buffer store) in
  let total_jobs = List.length r.Workload.jobs in
  let reader_p99 =
    Workload.percentile
      (List.filter_map
         (fun (j : Workload.job) ->
           if j.Workload.client < clients then Some j.Workload.latency else None)
         r.Workload.jobs)
      99.0
  in
  let read_budget = clients * serial_reads in
  let latencies = List.map (fun (j : Workload.job) -> j.Workload.latency) r.Workload.jobs in
  let p50 = Workload.percentile latencies 50.0 in
  let p95 = Workload.percentile latencies 95.0 in
  let p99 = Workload.percentile latencies 99.0 in
  let m = r.Workload.metrics in
  let throughput = if m.total_time > 0.0 then float_of_int total_jobs /. m.total_time else 0.0 in
  let yields = List.fold_left (fun a (j : Workload.job) -> a + j.Workload.yields) 0 r.Workload.jobs in
  let boosts = List.fold_left (fun a (j : Workload.job) -> a + j.Workload.boosts) 0 r.Workload.jobs in
  let statuses =
    tally r.Workload.jobs ~max_concurrent:r.Workload.max_concurrent ~turns:r.Workload.turns
  in
  Printf.printf "throughput %.1f jobs/s   latency p50 %.4fs  p95 %.4fs  p99 %.4fs\n" throughput p50
    p95 p99;
  Printf.printf "page reads %d vs budget %d (%d clients x %d serial) — sharing factor %.2fx\n"
    r.Workload.page_reads read_budget clients serial_reads
    (float_of_int read_budget /. float_of_int (max 1 r.Workload.page_reads));
  Printf.printf "coalescing: %d batched reads over %d pages in %d runs; %d yields, %d boosts\n"
    m.batched_reads m.batch_pages m.coalesce_runs yields boosts;
  if writers > 0 then
    Printf.printf
      "writers: %d commits, %d latch waits, %d snapshot retries, %d cluster stales; reader p99 \
       %.4fs (writer-free %.4fs)\n"
      r.Workload.writer_commits r.Workload.latch_waits r.Workload.snapshot_retries
      m.cluster_stales reader_p99 writer_free_p99;
  let job_rows =
    List.map
      (fun (j : Workload.job) ->
        Json.Obj
          [
            ("label", Json.String j.Workload.job_label);
            ("client", Json.Int j.Workload.client);
            ("status", Json.String (Workload.status_to_string j.Workload.status));
            ("count", Json.Int j.Workload.count);
            ("submitted", Json.Float j.Workload.submitted);
            ("started", Json.Float j.Workload.started);
            ("finished", Json.Float j.Workload.finished);
            ("latency", Json.Float j.Workload.latency);
            ("pin_wait", Json.Float (j.Workload.started -. j.Workload.submitted));
            ("served_ticks", Json.Int j.Workload.served_ticks);
            ("starved_ticks", Json.Int j.Workload.starved_ticks);
            ("yields", Json.Int j.Workload.yields);
            ("boosts", Json.Int j.Workload.boosts);
            ("writer_commits", Json.Int j.Workload.writer_commits);
            ("latch_waits", Json.Int j.Workload.metrics.latch_waits);
            ("snapshot_retries", Json.Int j.Workload.snapshot_retries);
            ("finish_commit", Json.Int j.Workload.finish_commit);
            ("fell_back", Json.Bool j.Workload.metrics.fell_back);
          ])
      r.Workload.jobs
  in
  let doc =
    document ~mode:"workload" ~profile cfg
      [
        ("scale", Json.Float 1.0);
        ("clients", Json.Int clients);
        ("nodes", Json.Int import.Import.node_count);
        ("pages", Json.Int import.Import.page_count);
      ]
      [
        ( "workload",
          Json.Obj
            ([ ("clients", Json.Int clients); ("jobs", Json.Int total_jobs) ]
            @ statuses
            @ [
                ("throughput", Json.Float throughput);
                ("latency_p50", Json.Float p50);
                ("latency_p95", Json.Float p95);
                ("latency_p99", Json.Float p99);
                ("page_reads", Json.Int r.Workload.page_reads);
                ("serial_page_reads", Json.Int serial_reads);
                ("read_budget", Json.Int read_budget);
                ("io_time", Json.Float r.Workload.io_time);
                ("cpu_time", Json.Float m.cpu_time);
                ("total_time", Json.Float m.total_time);
                ("seek_distance", Json.Int m.seek_distance);
                ("batched_reads", Json.Int m.batched_reads);
                ("batch_pages", Json.Int m.batch_pages);
                ("coalesce_runs", Json.Int m.coalesce_runs);
                ("max_concurrent", Json.Int r.Workload.max_concurrent);
                ("turns", Json.Int r.Workload.turns);
                ("yields", Json.Int yields);
                ("boosts", Json.Int boosts);
                ("writers", Json.Int writers);
                ("writer_commits", Json.Int r.Workload.writer_commits);
                ("latch_waits", Json.Int r.Workload.latch_waits);
                ("snapshot_retries", Json.Int r.Workload.snapshot_retries);
                ("cluster_stales", Json.Int m.cluster_stales);
                ("reader_p99", Json.Float reader_p99);
                ("violations", Json.Int (List.length r.Workload.violations));
                ("pinned", Json.Int pinned);
                ("expected_jobs", Json.Int ((clients * List.length mix) + writers));
                ("writer_free_reader_p99", Json.Float writer_free_p99);
              ]) );
        ("jobs", Json.List job_rows);
      ]
  in
  Json.write out_file doc;
  Printf.printf "wrote %d workload job rows to %s\n" total_jobs out_file;
  gate ~run:Gate.Workload doc

(* --- sharded tenancy mode (--workload --shards) -------------------------------- *)

(* Multi-document tenancy through the Shard engine: M XMark tenant
   documents placed on K shards by the stable hash, closed-loop clients
   each pinned to a home tenant, the q6'/q7/q15 mix plus one
   deliberately antagonistic XScan sweep per client rotation — the
   co-located sequential scan the 2Q policy must absorb. The wall-clock
   is the busiest shard's simulated disk time. *)
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
  let config = { Context.default_config with Context.validate = true; scan_resistant = true } in
  let mix =
    workload_mix ()
    @ [
        (* The antagonist: a full sequential sweep of the tenant's pages.
           With 2Q on, its one-shot pages stay probationary and recycle
           against themselves instead of flushing the mix's hot set. *)
        spec ~plan:(Plan.xscan ()) "scan" (List.hd Queries.q7.Queries.paths);
      ]
  in
  let per_client = if profile = "smoke" then 4 else 6 in
  let queues =
    Array.init clients (fun i ->
        let tenant = tenant_name (i mod tenants) in
        List.filteri (fun k _ -> k < per_client) (rotate i mix)
        |> List.map (fun spec -> { Shard.tenant; spec }))
  in
  let expected_jobs = Array.fold_left (fun a q -> a + List.length q) 0 queues in
  let run_topology k =
    let t = Shard.create ~capacity:cfg.buffer ~page_size:cfg.page_size ~shards:k tenant_docs in
    Shard.run_clients ~config ~cold:true t queues
  in
  let wall_of (res : Shard.result) =
    List.fold_left (fun a (s : Shard.shard_stat) -> Float.max a s.Shard.io_time) 0.0
      res.Shard.shard_stats
  in
  let r = run_topology shards in
  let wall = wall_of r in
  (* The colocation reference: same tenants, same clients, one stack. *)
  let single_wall = wall_of (run_topology 1) in
  print_violations "--shards" r.Shard.violations;
  let total_jobs = List.length r.Shard.jobs in
  let active_tenants =
    List.filter (fun (ts : Shard.tenant_stat) -> ts.Shard.jobs > 0) r.Shard.tenant_stats
  in
  let p99s = List.map (fun (ts : Shard.tenant_stat) -> ts.Shard.p99) active_tenants in
  let tenant_p99 = List.fold_left Float.max 0.0 p99s in
  let tenant_p99_median = Workload.percentile p99s 50.0 in
  let shard_reads = r.Shard.page_reads in
  let scan_resist_hits =
    List.fold_left (fun a (s : Shard.shard_stat) -> a + s.Shard.scan_resist_hits) 0
      r.Shard.shard_stats
  in
  let throughput = if wall > 0.0 then float_of_int total_jobs /. wall else 0.0 in
  let statuses =
    tally (List.map snd r.Shard.jobs) ~max_concurrent:r.Shard.max_concurrent ~turns:r.Shard.turns
  in
  Printf.printf
    "wall %.4fs (single-shard %.4fs)   throughput %.1f jobs/s   tenant p99 max %.4fs / median %.4fs\n"
    wall single_wall throughput tenant_p99 tenant_p99_median;
  Printf.printf "%d page reads over %d shards; %d rebalance moves, %d 2q protected hits\n"
    shard_reads shards r.Shard.rebalance_moves scan_resist_hits;
  let shard_rows =
    List.map
      (fun (s : Shard.shard_stat) ->
        Json.Obj
          [
            ("shard", Json.Int s.Shard.shard);
            ("tenants", Json.Int s.Shard.tenants);
            ("page_reads", Json.Int s.Shard.page_reads);
            ("io_time", Json.Float s.Shard.io_time);
            ("turns", Json.Int s.Shard.turns);
            ("scan_resist_hits", Json.Int s.Shard.scan_resist_hits);
          ])
      r.Shard.shard_stats
  in
  let tenant_rows =
    List.map
      (fun (ts : Shard.tenant_stat) ->
        Json.Obj
          [
            ("tenant", Json.String ts.Shard.tenant);
            ("shard", Json.Int ts.Shard.shard);
            ("jobs", Json.Int ts.Shard.jobs);
            ("latency_p50", Json.Float ts.Shard.p50);
            ("latency_p99", Json.Float ts.Shard.p99);
            ("served_ticks", Json.Int ts.Shard.served_ticks);
            ("starved_ticks", Json.Int ts.Shard.starved_ticks);
            ("cache_hits", Json.Int ts.Shard.cache_hits);
          ])
      r.Shard.tenant_stats
  in
  let doc =
    document ~mode:"workload-shards" ~profile
      { cfg with fidelity = tenant_fidelity }
      [
        ("clients", Json.Int clients);
        ("shards", Json.Int shards);
        ("tenants", Json.Int tenants);
        ("per_client", Json.Int per_client);
      ]
      [
        ( "shards_summary",
          Json.Obj
            ([ ("jobs", Json.Int total_jobs) ]
            @ statuses
            @ [
                ("shard_reads", Json.Int shard_reads);
                ("tenant_p99", Json.Float tenant_p99);
                ("tenant_p99_median", Json.Float tenant_p99_median);
                ("rebalance_moves", Json.Int r.Shard.rebalance_moves);
                ("scan_resist_hits", Json.Int scan_resist_hits);
                ("throughput", Json.Float throughput);
                ("wall_simulated", Json.Float wall);
                ("single_shard_wall", Json.Float single_wall);
                ("turns", Json.Int r.Shard.turns);
                ("max_concurrent", Json.Int r.Shard.max_concurrent);
                ("cache_hits", Json.Int r.Shard.cache_hits);
                ("cpu_time", Json.Float r.Shard.cpu_time);
                ("io_time", Json.Float r.Shard.io_time);
                ("violations", Json.Int (List.length r.Shard.violations));
                ("expected_jobs", Json.Int expected_jobs);
              ]) );
        ("shards", Json.List shard_rows);
        ("tenants", Json.List tenant_rows);
      ]
  in
  Json.write out_file doc;
  Printf.printf "wrote %d shard rows and %d tenant rows to %s\n" (List.length shard_rows)
    (List.length tenant_rows) out_file;
  gate ~run:Gate.Shards doc
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

(* Every flag the harness takes; those in [valued] take the next argument
   as their value. Anything else is a usage error, so a misspelt CI flag
   cannot pass a gate vacuously. *)
let switches = [ "micro"; "--micro"; "--quick"; "--smoke"; "--workload"; "--skew" ]

let valued =
  [ "--json"; "--compare"; "--tolerance"; "--filter" ]
  @ [ "--clients"; "--writers"; "--shards"; "--tenants" ]

let usage_error msg =
  prerr_endline ("bench: " ^ msg);
  exit 2

let parse_args argv =
  let rec go acc = function
    | [] -> List.rev acc
    | f :: rest when List.mem f switches -> go ((f, "") :: acc) rest
    | f :: v :: rest when List.mem f valued -> go ((f, v) :: acc) rest
    | f :: _ when List.mem f valued -> usage_error (f ^ " needs a value")
    | f :: _ -> usage_error ("unknown flag " ^ f)
  in
  go [] argv

let () =
  let args = parse_args (List.tl (Array.to_list Sys.argv)) in
  let has flag = List.mem_assoc flag args in
  let value flag = List.assoc_opt flag args in
  let number flag parse ~min default =
    match Option.map parse (value flag) with
    | None -> default
    | Some (Some n) when n >= min -> n
    | Some _ -> usage_error (flag ^ ": not a number in range: " ^ Option.get (value flag))
  in
  let int_flag flag = number flag int_of_string_opt in
  let tolerance = number "--tolerance" float_of_string_opt ~min:0.0 0.25 in
  try
    if has "micro" then micro ()
    else if has "--micro" then begin
      (* The fused-chain micro tier on its own; a non-finite measurement
         makes the printer raise, so the CI smoke step exits non-zero. *)
      section_header "fused vs iterator chain (ns per extension)";
      List.iter print_endline (List.map Json.to_string (fused_micro_rows ()))
    end
    else begin
      let profile, cfg =
        if has "--smoke" then ("smoke", smoke_config)
        else if has "--quick" then ("quick", quick_config)
        else ("full", full_config)
      in
      if has "--workload" then begin
        let clients = int_flag "--clients" ~min:1 8 in
        let out_file = Option.value (value "--json") ~default:"bench-workload.json" in
        if has "--shards" then
          let shards = int_flag "--shards" ~min:1 4 in
          let tenants = int_flag "--tenants" ~min:1 (2 * shards) in
          shard_mode ~profile cfg ~clients ~shards ~tenants out_file
        else if has "--skew" then skew_mode ~profile ~smoke:(has "--smoke") cfg ~clients out_file
        else workload_mode ~profile cfg ~clients ~writers:(int_flag "--writers" ~min:0 0) out_file
      end
      else
        match (value "--json", value "--compare") with
        | None, None -> (
          Printf.printf
            "xnav benchmark harness — fidelity %.3f, %d-byte pages, %d-page buffer\n\
             (simulated seconds from the deterministic disk model; see EXPERIMENTS.md)\n"
            cfg.fidelity cfg.page_size cfg.buffer;
          let sections = sections cfg in
          match value "--filter" with
          | Some name -> (
            match List.assoc_opt name sections with
            | Some f -> f ()
            | None ->
              Printf.eprintf "unknown section %s; available: %s\n" name
                (String.concat ", " (List.map fst sections));
              exit 1)
          | None -> List.iter (fun (_, f) -> f ()) sections)
        | json, baseline_file ->
          (* --compare needs a fresh run to compare; without an explicit
             --json target the rows land in a scratch file. *)
          let doc = json_mode ~profile cfg (Option.value json ~default:"bench-current.json") in
          gate ~run:Gate.Rows ?baseline:(Option.map Json.read baseline_file) ~tolerance doc;
          Option.iter
            (fun file ->
              Printf.printf "compare: no regressions vs %s (tolerance %.0f%%)\n" file
                (100. *. tolerance))
            baseline_file
    end
  with Json.Malformed msg ->
    Printf.eprintf "bench: malformed output: %s\n" msg;
    exit 1
