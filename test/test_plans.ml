(* End-to-end correctness of the physical algebra: every plan shape must
   produce exactly the reference evaluator's node set, in document
   order, under every clustering strategy, buffer size, queue minimum and
   memory budget — including runs that fall back mid-flight. *)

module Tree = Xnav_xml.Tree
module Axis = Xnav_xml.Axis
module Node_id = Xnav_store.Node_id
module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Buffer_manager = Xnav_storage.Buffer_manager
module Path = Xnav_xpath.Path
module Xpath_parser = Xnav_xpath.Xpath_parser
module Eval_ref = Xnav_xpath.Eval_ref
module Eval_store = Xnav_core.Eval_store
module Plan = Xnav_core.Plan
module Compile = Xnav_core.Compile
module Exec = Xnav_core.Exec
module Context = Xnav_core.Context
module Update = Xnav_store.Update
module Disk = Xnav_storage.Disk
module Workload = Xnav_workload.Workload
module Gen_x = Xnav_xmark.Gen
module Queries = Xnav_xmark.Queries

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let all_plans =
  [
    Plan.simple;
    Plan.Simple { dedup_intermediate = false };
    Plan.xschedule ();
    Plan.xschedule ~speculative:false ();
    Plan.xscan ();
  ]

(* Expected result as preorder ranks, via the reference evaluator. *)
let expected_preorders doc path =
  List.map (fun n -> n.Tree.preorder) (Eval_ref.eval doc path)

let preorders_of (import : Import.result) infos =
  let index = Node_id.Tbl.create 256 in
  Array.iteri (fun pre id -> Node_id.Tbl.replace index id pre) import.Import.node_ids;
  List.map (fun (i : Store.info) -> Node_id.Tbl.find index i.Store.id) infos

let run_one ?config ?contexts store plan path = Exec.cold_run ?config ?contexts store path plan

(* Check all plans against the oracle on [doc] for [path]. *)
let agree ?config ?(strategy = Import.Dfs) ?(payload = 200) ?(capacity = 16) doc path =
  let store, import = Gen.import_store ~strategy ~payload ~capacity doc in
  let expected = expected_preorders doc path in
  List.for_all
    (fun plan ->
      let result = run_one ?config store plan path in
      let got = preorders_of import result.Exec.nodes in
      let ok = got = expected in
      if not ok then
        Format.eprintf "MISMATCH plan=%s path=%s@.expected %a@.got %a@."
          (Plan.name plan) (Path.to_string path)
          Fmt.(Dump.list int) expected
          Fmt.(Dump.list int) got;
      ok && Buffer_manager.pinned_count (Store.buffer store) = 0)
    all_plans

let paths =
  [
    "/R";
    "/A";
    "//B";
    "//*";
    "/A/B";
    "/A//B";
    "//A//B";
    "//A/B/C";
    "/self::R/A/C";
    "//node()";
    "/descendant::B";
    "/descendant-or-self::node()/C";
    "//C//B";
    "/A/A/C/B";
  ]

let fixed_tests =
  List.map
    (fun path_str ->
      Alcotest.test_case path_str `Quick (fun () ->
          let path = Xpath_parser.parse path_str in
          check bool "all plans agree" true (agree (Gen.sample_doc ()) path)))
    paths

let strategy_tests =
  List.concat_map
    (fun strategy ->
      List.map
        (fun (label, doc) ->
          Alcotest.test_case
            (Printf.sprintf "%s on %s doc" (Import.strategy_to_string strategy) label)
            `Quick
            (fun () ->
              let path = Xpath_parser.parse "//b//x" in
              check bool "agree" true (agree ~strategy (doc ()) path)))
        [
          ("wide", fun () -> Gen.wide_tree ~children:70 ());
          ("deep", fun () -> Gen.deep_tree ~depth:50 ());
        ])
    [ Import.Dfs; Import.Bfs; Import.Scattered 7 ]

(* Tiny buffers force evictions mid-run; tiny k starves the scheduler of
   alternatives; tiny memory budgets force fallback. All must stay
   correct. *)
let stress_tests =
  [
    Alcotest.test_case "tiny buffer capacity" `Quick (fun () ->
        let path = Xpath_parser.parse "//b" in
        check bool "agree" true (agree ~capacity:3 (Gen.wide_tree ~children:60 ()) path));
    Alcotest.test_case "k = 1" `Quick (fun () ->
        let path = Xpath_parser.parse "//c" in
        let config = { Context.default_config with Context.k = 1 } in
        check bool "agree" true (agree ~config (Gen.wide_tree ~children:60 ()) path));
    Alcotest.test_case "fallback: zero memory budget" `Quick (fun () ->
        let path = Xpath_parser.parse "//b//x" in
        let config = { Context.default_config with Context.memory_budget = 0 } in
        check bool "agree" true (agree ~config (Gen.wide_tree ~children:60 ()) path));
    Alcotest.test_case "fallback: small budget actually triggers" `Quick (fun () ->
        (* Scattered clustering makes speculations arrive long before
           their anchors are reachable, growing S past the budget; under
           DFS the scan resolves them almost immediately. *)
        let doc = Gen.wide_tree ~children:80 () in
        let store, _ = Gen.import_store ~strategy:(Import.Scattered 5) ~payload:200 ~capacity:16 doc in
        let path = Xpath_parser.parse "//b" in
        let config = { Context.default_config with Context.memory_budget = 3 } in
        let result = run_one ~config store (Plan.xscan ()) path in
        check bool "fell back" true result.Exec.metrics.Exec.fell_back;
        check bool "still correct" true
          (result.Exec.count = Eval_ref.count doc path));
    Alcotest.test_case "huge budget does not fall back" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:40 () in
        let store, _ = Gen.import_store ~payload:200 doc in
        let result = run_one store (Plan.xscan ()) (Xpath_parser.parse "//b") in
        check bool "no fallback" false result.Exec.metrics.Exec.fell_back);
  ]

(* The // optimisation: same results with dslash on and off. *)
let dslash_tests =
  [
    Alcotest.test_case "//-optimised scan agrees" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:60 () in
        let store, import = Gen.import_store ~payload:200 doc in
        List.iter
          (fun path_str ->
            let path = Xpath_parser.parse path_str in
            check bool "starts with //" true (Path.starts_with_descendant_any path);
            let plain = run_one store (Plan.xscan ()) path in
            let opt = run_one store (Plan.xscan ~seeding:Plan.Dslash ()) path in
            check bool "same results"
              true
              (preorders_of import plain.Exec.nodes = preorders_of import opt.Exec.nodes);
            check int "oracle count" (Eval_ref.count doc path) opt.Exec.count)
          [ "//b"; "//x"; "//b/x"; "//node()" ]);
  ]

(* Summary seeding: the path partition drops the seeds no crossing can
   ever discharge, so every id and page read is the [All] plan's and
   only the speculation counters fall. *)
let xmark_store () =
  let doc = Gen_x.generate ~config:{ Gen_x.default_config with Gen_x.scale = 0.1 } () in
  let disk = Disk.create ~config:{ Disk.default_config with Disk.page_size = 4096 } () in
  Store.attach (Buffer_manager.create ~capacity:64 disk) (Import.run disk doc)

let sorted_ids (r : Exec.result) =
  List.map (fun (i : Store.info) -> i.Store.id) r.Exec.nodes |> List.sort Node_id.compare

let id_list = Alcotest.testable (Fmt.Dump.list Node_id.pp) (List.equal Node_id.equal)

let drain stream =
  let rec go acc =
    match Exec.stream_next stream with None -> acc | Some (i : Store.info) -> go (i.Store.id :: acc)
  in
  List.sort Node_id.compare (go [])

let summary_tests =
  [
    Alcotest.test_case "summary seeding keeps ids and page reads on q6', q7 and q15" `Quick
      (fun () ->
        let store = xmark_store () in
        List.iter
          (fun (q : Queries.t) ->
            List.iter
              (fun path ->
                List.iter
                  (fun (seeding_of, all) ->
                    let summary = seeding_of Plan.Summary in
                    let name = q.Queries.name ^ " " ^ Plan.name summary in
                    let a = Exec.cold_run ~ordered:false store path all in
                    let m = Exec.cold_run ~ordered:false store path summary in
                    check id_list (name ^ ": ids") (sorted_ids a) (sorted_ids m);
                    check int (name ^ ": page reads") a.Exec.metrics.Exec.page_reads
                      m.Exec.metrics.Exec.page_reads;
                    check bool (name ^ ": no more speculations") true
                      (m.Exec.metrics.Exec.specs_created <= a.Exec.metrics.Exec.specs_created);
                    (* Dead seeds are what fills S on the selective
                       queries' scans. *)
                    if q.Queries.name <> "q7" && all = Plan.xscan () then begin
                      check bool (name ^ ": fewer speculations") true
                        (m.Exec.metrics.Exec.specs_created < a.Exec.metrics.Exec.specs_created);
                      check bool (name ^ ": lower S peak") true
                        (m.Exec.metrics.Exec.s_peak < a.Exec.metrics.Exec.s_peak)
                    end)
                  [
                    ((fun seeding -> Plan.xscan ~seeding ()), Plan.xscan ());
                    ((fun seeding -> Plan.xschedule ~seeding ()), Plan.xschedule ());
                  ])
              q.Queries.paths)
          [ Queries.q6'; Queries.q7; Queries.q15 ]);
    Alcotest.test_case "a budget that makes q15's paper scan fall back spares the compiled scan"
      `Quick (fun () ->
        let store = xmark_store () in
        let path = List.hd Queries.q15.Queries.paths in
        let config = { Context.default_config with Context.memory_budget = 100 } in
        let paper = Exec.cold_run ~config ~ordered:false store path (Plan.xscan ()) in
        check bool "the paper's XScan falls back" true paper.Exec.metrics.Exec.fell_back;
        let plan = Compile.compile ~choice:Compile.Force_scan store path in
        check Alcotest.string "the compiled scan seeds by summary" "xscan+summary" (Plan.name plan);
        let compiled = Exec.cold_run ~config ~ordered:false store path plan in
        check bool "the compiled scan does not fall back" false
          compiled.Exec.metrics.Exec.fell_back;
        check id_list "same ids" (sorted_ids paper) (sorted_ids compiled));
    Alcotest.test_case "a commit between two seedings keeps the later seedings pruned" `Quick
      (fun () ->
        let path = List.hd Queries.q6'.Queries.paths in
        let tag = Xnav_xml.Tag.of_string "item" in
        (* One stream per seeding on identical stores: paused at the
           first answer after ten clusters (both streams have scanned
           the same clusters then: pruned seeds emit nothing), a commit
           under the root (the last cluster, not yet scanned), then
           drained. *)
        let paused seeding =
          let store = xmark_store () in
          let stream = Exec.prepare store path (Plan.xscan ~seeding ()) in
          let c = (Exec.stream_ctx stream).Context.counters in
          let rec pull acc =
            let id = (Option.get (Exec.stream_next stream)).Store.id in
            if c.Context.clusters_visited < 10 then pull (id :: acc) else id :: acc
          in
          let head = pull [] in
          let visited = c.Context.clusters_visited and before = c.Context.specs_created in
          ignore (Update.insert_element store ~parent:(Store.root store) tag);
          let ids = List.sort Node_id.compare (head @ drain stream) in
          (store, ids, visited, before, c.Context.specs_created - before)
        in
        let _, all_ids, all_visited, all_before, all_after = paused Plan.All in
        let store, ids, visited, before, after = paused Plan.Summary in
        check bool "the commit lands mid-scan" true (visited < Store.page_count store);
        check int "both streams paused after the same clusters" all_visited visited;
        check bool "seedings before the commit are pruned" true (before < all_before);
        check bool "clusters with Up borders remain after the commit" true (after > 0);
        check bool "seedings after the commit stay pruned" true (after < all_after);
        let serial = sorted_ids (Exec.run ~ordered:false store path Plan.simple) in
        check id_list "the answer is the post-commit answer" serial ids;
        check id_list "and the All stream's" serial all_ids;
        (* The same schedule through the workload engine: the writer
           commits while the summary reader is mid-scan, and the reader's
           answer is the serial replay at its finish point. *)
        let store = xmark_store () in
        let reader =
          { Workload.label = "r"; path; plan = Plan.xscan ~seeding:Plan.Summary (); timeout = None; ops = [] }
        in
        let writer =
          {
            Workload.label = "w";
            path;
            plan = Plan.simple;
            timeout = None;
            ops = [ Workload.Insert_child { parent = Store.root store; tag } ];
          }
        in
        let config = { Context.default_config with Context.validate = true } in
        let r = Workload.run_clients ~config ~cold:true store [| [ reader ]; [ writer ] |] in
        check Alcotest.(list string) "no invariant violations" [] r.Workload.violations;
        let job = List.find (fun (j : Workload.job) -> j.Workload.job_label = "r") r.Workload.jobs in
        check int "no snapshot restart" 0 job.Workload.snapshot_retries;
        check int "the reader finished after the commit" 1 job.Workload.finish_commit;
        check id_list "the reader's answer is the serial replay" serial
          (List.map (fun (i : Store.info) -> i.Store.id) job.Workload.nodes
          |> List.sort Node_id.compare));
  ]

(* Multiple context nodes, including duplicates-producing overlaps. *)
let context_tests =
  [
    Alcotest.test_case "multiple contexts, overlapping subtrees" `Quick (fun () ->
        let doc = Gen.sample_doc () in
        let store, import = Gen.import_store ~payload:200 doc in
        ignore (Tree.index doc);
        (* Contexts: all A nodes (computed via the reference). *)
        let contexts_ref = Eval_ref.eval doc (Xpath_parser.parse "//A") in
        let contexts =
          List.map (fun n -> import.Import.node_ids.(n.Tree.preorder)) contexts_ref
        in
        let path = Xpath_parser.parse "descendant-or-self::node()/B" in
        let expected =
          List.sort_uniq Stdlib.compare
            (List.concat_map
               (fun c -> List.map (fun n -> n.Tree.preorder) (Eval_ref.eval c path))
               contexts_ref)
        in
        List.iter
          (fun plan ->
            let result = run_one ~contexts store plan path in
            check (Alcotest.list int) (Plan.name plan) expected
              (preorders_of import result.Exec.nodes))
          all_plans);
    Alcotest.test_case "empty context list yields empty result" `Quick (fun () ->
        let store, _ = Gen.import_store (Gen.sample_doc ()) in
        List.iter
          (fun plan ->
            let r = run_one ~contexts:[] store plan (Xpath_parser.parse "//B") in
            check int (Plan.name plan) 0 r.Exec.count)
          all_plans);
  ]

(* Non-downward paths must work via Simple and be rejected by reordered
   plans. *)
let axis_guard_tests =
  [
    Alcotest.test_case "upward path on simple plan matches oracle" `Quick (fun () ->
        let doc = Gen.sample_doc () in
        let store, import = Gen.import_store ~payload:200 doc in
        let path = Xpath_parser.parse "//B/ancestor::A/following-sibling::*" in
        let result = run_one store Plan.simple path in
        check (Alcotest.list int) "oracle" (expected_preorders doc path)
          (preorders_of import result.Exec.nodes));
    Alcotest.test_case "reordered plan rejects upward axes" `Quick (fun () ->
        let store, _ = Gen.import_store (Gen.sample_doc ()) in
        (match run_one store (Plan.xscan ()) (Xpath_parser.parse "//B/..") with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument"));
    Alcotest.test_case "compile falls back to simple for upward axes" `Quick (fun () ->
        let store, _ = Gen.import_store (Gen.sample_doc ()) in
        match Compile.compile store (Xpath_parser.parse "//B/..") with
        | Plan.Simple _ -> ()
        | Plan.Reordered _ -> Alcotest.fail "expected a simple plan");
  ]

(* Eval_store (logical evaluation over physical storage) agrees too. *)
let eval_store_tests =
  [
    Alcotest.test_case "eval_store agrees with eval_ref" `Quick (fun () ->
        let doc = Gen.sample_doc () in
        let store, import = Gen.import_store ~payload:200 doc in
        List.iter
          (fun path_str ->
            let path = Xpath_parser.parse path_str in
            let got =
              preorders_of import (Eval_store.eval store (Store.root store) path)
            in
            check (Alcotest.list int) path_str (expected_preorders doc path) got)
          (paths @ [ "//B/ancestor::*"; "//C/preceding-sibling::node()" ]));
  ]

(* Randomised: every plan = oracle on arbitrary trees, strategies and
   downward paths. *)
let plan_props =
  [
    QCheck2.Test.make ~name:"plans: all plans match the oracle on random inputs" ~count:120
      QCheck2.Gen.(
        triple (Gen.tree_gen ~size:45 ()) Gen.path_gen
          (oneofl [ Import.Dfs; Import.Bfs; Import.Scattered 3 ]))
      ~print:(fun (tree, path, strategy) ->
        Printf.sprintf "%s | %s | %s" (Gen.tree_print tree) (Path.to_string path)
          (Import.strategy_to_string strategy))
      (fun (tree, path, strategy) -> agree ~strategy tree path);
    QCheck2.Test.make ~name:"plans: correct under fallback pressure on random inputs" ~count:60
      QCheck2.Gen.(pair (Gen.tree_gen ~size:45 ()) Gen.path_gen)
      ~print:(fun (tree, path) ->
        Printf.sprintf "%s | %s" (Gen.tree_print tree) (Path.to_string path))
      (fun (tree, path) ->
        let config = { Context.default_config with Context.memory_budget = 1 } in
        agree ~config tree path);
  ]

(* Metric sanity: scan is sequential, schedule beats simple on I/O. *)
let metric_tests =
  [
    Alcotest.test_case "xscan reads every page exactly once, sequentially" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:120 () in
        let store, import = Gen.import_store ~payload:220 ~capacity:8 doc in
        let r = run_one store (Plan.xscan ()) (Xpath_parser.parse "//b") in
        check int "page reads" import.Import.page_count r.Exec.metrics.Exec.page_reads;
        check int "all sequential" r.Exec.metrics.Exec.page_reads
          r.Exec.metrics.Exec.sequential_reads);
    Alcotest.test_case "xschedule does not visit more clusters than simple touches" `Quick
      (fun () ->
        let doc = Gen.wide_tree ~children:120 () in
        let store, _ = Gen.import_store ~payload:220 ~capacity:8 doc in
        let path = Xpath_parser.parse "//b/x" in
        let sched = run_one store (Plan.xschedule ()) path in
        let simple = run_one store Plan.simple path in
        check bool "io_time not worse" true
          (sched.Exec.metrics.Exec.io_time <= simple.Exec.metrics.Exec.io_time +. 1e-9));
    Alcotest.test_case "speculation avoids revisits" `Quick (fun () ->
        (* With speculation, each cluster is visited at most once. *)
        let doc = Gen.wide_tree ~children:120 () in
        let store, import = Gen.import_store ~payload:220 ~capacity:32 doc in
        let r = run_one store (Plan.xschedule ()) (Xpath_parser.parse "//b/x") in
        check bool "visits <= pages" true
          (r.Exec.metrics.Exec.clusters_visited <= import.Import.page_count));
  ]

(* Auto's pick for each path of q6', q7 and q15 on the bench's XMark
   stores (4 KB pages, 256 frames, depth-first clustering): the smoke
   profile (fidelity 0.005) and the quick profile (fidelity 0.02), at
   each of their scale factors. *)
let bench_auto_pins =
  let q7 = [ "xscan+summary"; "xscan+summary"; "xscan+summary" ] in
  [
    (0.005, 0.25, [ ("q6'", [ "xscan+summary" ]); ("q7", q7); ("q15", [ "xindex" ]) ]);
    (0.005, 1.0, [ ("q6'", [ "xindex" ]); ("q7", q7); ("q15", [ "xindex" ]) ]);
    (0.02, 0.1, [ ("q6'", [ "xindex" ]); ("q7", q7); ("q15", [ "xindex" ]) ]);
    (0.02, 0.5, [ ("q6'", [ "xindex" ]); ("q7", q7); ("q15", [ "xindex" ]) ]);
    (0.02, 1.0, [ ("q6'", [ "xindex" ]); ("q7", q7); ("q15", [ "xindex" ]) ]);
    (0.02, 2.0, [ ("q6'", [ "xindex" ]); ("q7", q7); ("q15", [ "xindex" ]) ]);
  ]

let compile_tests =
  [
    Alcotest.test_case "auto keeps its pinned pick for the paper queries at bench scales" `Quick
      (fun () ->
        List.iter
          (fun (fidelity, scale, pins) ->
            let doc = Gen_x.generate ~config:{ Gen_x.default_config with Gen_x.scale; fidelity } () in
            let disk = Disk.create ~config:{ Disk.default_config with Disk.page_size = 4096 } () in
            let store = Store.attach (Buffer_manager.create ~capacity:256 disk) (Import.run disk doc) in
            List.iter
              (fun (name, plans) ->
                let q = Option.get (Queries.find name) in
                let picked = List.map (fun path -> Plan.name (Compile.compile store path)) q.Queries.paths in
                check (Alcotest.list Alcotest.string)
                  (Printf.sprintf "%s at fidelity %.3f sf %.2f" name fidelity scale)
                  plans picked)
              pins)
          bench_auto_pins);
    Alcotest.test_case "estimate separates regimes" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:200 () in
        let store, _ = Gen.import_store ~payload:220 doc in
        (* Low selectivity: // touches everything -> scan. *)
        let broad = Compile.estimate store (Xpath_parser.parse "//node()") in
        check bool "scan wins broad" true (broad.Compile.cost_scan < broad.Compile.cost_schedule);
        (* A tag that appears nowhere -> schedule. *)
        let narrow = Compile.estimate store (Xpath_parser.parse "/zzz-missing/zzz-missing") in
        check bool "schedule wins narrow" true
          (narrow.Compile.cost_schedule < narrow.Compile.cost_scan));
    Alcotest.test_case "compile honours force choices" `Quick (fun () ->
        let store, _ = Gen.import_store (Gen.sample_doc ()) in
        let path = Xpath_parser.parse "//B" in
        (match Compile.compile ~choice:Compile.Force_scan store path with
        | Plan.Reordered { io = Plan.Io_scan; seeding = Plan.Dslash } -> ()
        | plan -> Alcotest.failf "expected dslash scan, got %s" (Plan.name plan));
        match Compile.compile ~choice:Compile.Force_schedule store path with
        | Plan.Reordered { io = Plan.Io_schedule _; _ } -> ()
        | plan -> Alcotest.failf "expected schedule, got %s" (Plan.name plan));
    Alcotest.test_case "force reordered on upward axes rejected" `Quick (fun () ->
        let store, _ = Gen.import_store (Gen.sample_doc ()) in
        (match Compile.compile ~choice:Compile.Force_scan store (Xpath_parser.parse "//B/..") with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument"));
    Alcotest.test_case "auto picks the covering index for a selective child chain" `Quick
      (fun () ->
        let doc = Gen.wide_tree ~children:200 () in
        let store, _ = Gen.import_store ~payload:220 doc in
        let path = Xpath_parser.parse "/b/x" in
        let e = Compile.estimate store path in
        check bool "index beats schedule" true (e.Compile.cost_index < e.Compile.cost_schedule);
        check bool "index beats scan" true (e.Compile.cost_index < e.Compile.cost_scan);
        (match Compile.compile store path with
        | Plan.Reordered { io = Plan.Io_index _; _ } -> ()
        | plan -> Alcotest.failf "expected xindex, got %s" (Plan.name plan));
        (* Non-root contexts cannot use the partition (its classes are
           anchored at the document root). *)
        match Compile.compile ~context_is_root:false store path with
        | Plan.Reordered { io = Plan.Io_index _; _ } ->
          Alcotest.fail "non-root context must not pick xindex"
        | _ -> ());
    Alcotest.test_case "auto never picks residual index seeding for // paths" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:200 () in
        let store, _ = Gen.import_store ~payload:220 doc in
        let e = Compile.estimate store (Xpath_parser.parse "//x") in
        check bool "residual index costs at least a schedule" true
          (e.Compile.cost_index >= e.Compile.cost_schedule);
        match Compile.compile store (Xpath_parser.parse "//x") with
        | Plan.Reordered { io = Plan.Io_index _; _ } ->
          Alcotest.fail "// path must not pick xindex"
        | _ -> ());
    (* Satellite regression for the honest residual pricing: Q6'
       (/site/regions//item) has an indexable /site/regions prefix in
       front of a selective descendant tail. The estimator must price
       that tail from the summary step counts — not as a full random-read
       sweep — so the partition-seeded plan undercuts XScan, and the
       seeded run must actually beat the scan on the benchmark store. *)
    Alcotest.test_case "q6' seeds from the partition and beats xscan" `Slow (fun () ->
        let module Gen_x = Xnav_xmark.Gen in
        let module Queries = Xnav_xmark.Queries in
        let module Disk = Xnav_storage.Disk in
        let doc =
          Gen_x.generate
            ~config:{ Gen_x.default_config with Gen_x.scale = 1.0; fidelity = 0.02 }
            ()
        in
        let disk = Disk.create ~config:{ Disk.default_config with Disk.page_size = 4096 } () in
        let import = Import.run disk doc in
        let buffer = Buffer_manager.create ~capacity:256 disk in
        let store = Store.attach buffer import in
        let path = List.hd Queries.q6'.Queries.paths in
        let e = Compile.estimate store path in
        check bool "residual index estimated under scan" true
          (e.Compile.cost_index < e.Compile.cost_scan);
        let xindex = Exec.cold_run ~ordered:false store path (Plan.xindex ()) in
        let xscan = Exec.cold_run ~ordered:false store path (Plan.xscan ()) in
        check bool "partition entries seeded the run" true
          (xindex.Exec.metrics.Exec.index_entries > 0);
        check bool "residual tail engaged" true (xindex.Exec.metrics.Exec.index_clusters > 0);
        check int "same result count as xscan" xscan.Exec.count xindex.Exec.count;
        check bool "seeded plan reads fewer pages than the sweep" true
          (xindex.Exec.metrics.Exec.page_reads < xscan.Exec.metrics.Exec.page_reads);
        check bool "seeded plan beats xscan end to end" true
          (xindex.Exec.metrics.Exec.total_time < xscan.Exec.metrics.Exec.total_time));
  ]

(* Regression: the estimator's per-step fold could reach zero touched
   nodes (empty and all-upward paths fold over no downward steps;
   absent tags count zero, in the summary walk as in the per-tag bound),
   collapsing every cost and letting the tie-break silently pick XScan.
   The fold clamps to at least one touched node/page. *)
let no_stats_store () =
  let doc = Gen.wide_tree ~children:200 () in
  fst (Gen.import_store ~payload:220 doc)

let no_stats_tests =
  [
    Alcotest.test_case "estimate without stats clamps to one touched node" `Quick (fun () ->
        let store = no_stats_store () in
        List.iter
          (fun path ->
            let e = Compile.estimate store path in
            let label = Path.to_string path in
            check bool (label ^ ": touched >= 1") true (e.Compile.touched_nodes >= 1);
            check bool (label ^ ": est_pages >= 1") true (e.Compile.est_pages >= 1))
          [
            [];  (* depth 0: nothing to fold over *)
            Xpath_parser.parse "//B/ancestor::A";  (* upward tail *)
            Xpath_parser.parse "/zzz-missing/zzz-missing";  (* absent tags *)
          ]);
    Alcotest.test_case "no-stats narrow path schedules instead of scanning" `Quick (fun () ->
        let store = no_stats_store () in
        let e = Compile.estimate store (Xpath_parser.parse "/zzz-missing/zzz-missing") in
        check bool "schedule wins narrow" true (e.Compile.cost_schedule < e.Compile.cost_scan);
        (* From the root the summary resolves the path to no entries, so
           the covering index, which reads nothing, wins; elsewhere the
           schedule does. *)
        let path = Xpath_parser.parse "/zzz-missing/zzz-missing" in
        (match Compile.compile store path with
        | Plan.Reordered { io = Plan.Io_index _; _ } -> ()
        | plan -> Alcotest.failf "expected xindex, got %s" (Plan.name plan));
        match Compile.compile ~context_is_root:false store path with
        | Plan.Reordered { io = Plan.Io_schedule _; _ } -> ()
        | plan -> Alcotest.failf "expected schedule, got %s" (Plan.name plan));
    Alcotest.test_case "upward paths compile to simple with or without stats" `Quick (fun () ->
        let path = Xpath_parser.parse "//B/ancestor::A" in
        let with_stats, _ = Gen.import_store (Gen.sample_doc ()) in
        let without = no_stats_store () in
        List.iter
          (fun store ->
            match Compile.compile store path with
            | Plan.Simple _ -> ()
            | plan -> Alcotest.failf "expected simple, got %s" (Plan.name plan))
          [ with_stats; without ]);
  ]

let suite =
  [
    ("plans.fixed-paths", fixed_tests);
    ("plans.strategies", strategy_tests);
    ("plans.stress", stress_tests);
    ("plans.dslash", dslash_tests);
    ("plans.summary", summary_tests);
    ("plans.contexts", context_tests);
    ("plans.axis-guards", axis_guard_tests);
    ("plans.eval-store", eval_store_tests);
    Gen.qsuite "plans.props" plan_props;
    ("plans.metrics", metric_tests);
    ("plans.compile", compile_tests);
    ("plans.no-stats", no_stats_tests);
  ]
