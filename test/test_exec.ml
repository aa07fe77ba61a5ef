(* Executor-level behaviours: streams, metrics invariants, the async
   dispatch overhead, plan explain, and compile plan_for. *)

module Tree = Xnav_xml.Tree
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Path = Xnav_xpath.Path
module Xpath_parser = Xnav_xpath.Xpath_parser
module Eval_ref = Xnav_xpath.Eval_ref
module Plan = Xnav_core.Plan
module Exec = Xnav_core.Exec
module Compile = Xnav_core.Compile
module Multi = Xnav_core.Multi
module Query_exec = Xnav_core.Query_exec
module Workload = Xnav_workload.Workload
module Gen_x = Xnav_xmark.Gen
module Queries = Xnav_xmark.Queries

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* Every driver measures its run through the same boundary
   ({!Exec.snapshot} and {!Exec.measure}), so one statement run cold by
   the plain executor, as a one-job workload, through the hybrid
   executor with the plan forced and (for the scan plan) through the
   shared-scan driver must report the same deterministic rows. A cold
   run starts from a zeroed disk, so the disk's own totals after it are
   the reference: a row mis-wired in the shared fill shows up as a diff
   here. *)
let every_driver_same_counters () =
  let store, _ = Gen.import_store ~payload:220 (Gen.wide_tree ~children:200 ()) in
  let disk = Buffer_manager.disk (Store.buffer store) in
  let row io reads seek batches pages runs =
    Printf.sprintf "io=%h reads=%d seek=%d batches=%d batch_pages=%d runs=%d" io reads seek
      batches pages runs
  in
  let of_metrics (m : Exec.metrics) =
    row m.Exec.io_time m.Exec.page_reads m.Exec.seek_distance m.Exec.batched_reads
      m.Exec.batch_pages m.Exec.coalesce_runs
  in
  List.iter
    (fun text ->
      let path = Xpath_parser.parse text in
      List.iter
        (fun choice ->
          let plan = Compile.compile ~choice store path in
          let name = text ^ " " ^ Plan.name plan in
          let exec = of_metrics (Exec.cold_run ~ordered:false store path plan).Exec.metrics in
          let d = Disk.stats disk in
          check Alcotest.string (name ^ ": disk totals") exec
            (row (Disk.elapsed disk) d.Disk.reads d.Disk.seek_distance d.Disk.batched_reads
               d.Disk.batch_pages d.Disk.coalesce_runs);
          let w =
            Workload.run ~cold:true store
              [ { Workload.label = name; path; plan; timeout = None; ops = [] } ]
          in
          check Alcotest.string (name ^ ": one-job workload") exec
            (row w.Workload.io_time w.Workload.page_reads w.Workload.seek_distance
               w.Workload.batched_reads w.Workload.batch_pages w.Workload.coalesce_runs);
          let q = Query_exec.run ~choice ~cold:true store (Xpath_parser.parse_query text) in
          check Alcotest.string (name ^ ": hybrid executor") exec
            (of_metrics q.Query_exec.metrics);
          if choice = Compile.Force_scan then
            check Alcotest.string (name ^ ": shared scan") exec
              (of_metrics (Multi.run ~cold:true store [ path ]).Multi.metrics))
        Compile.[ Force_simple; Force_schedule; Force_scan; Force_index ])
    [ "//b"; "//x"; "//b//c" ];
  (* The shared scan seeds every loaded cluster through the same rule as
     XScan, so a single-path [Multi.run] creates the same speculative
     instances, reads the same pages and finds the same nodes — on XMark
     paths, whose many-page layout gives every cluster Up borders. *)
  let xmark =
    let doc = Gen_x.generate ~config:{ Gen_x.default_config with Gen_x.scale = 0.1 } () in
    let disk = Disk.create ~config:{ Disk.default_config with Disk.page_size = 4096 } () in
    Store.attach (Buffer_manager.create ~capacity:64 disk) (Import.run disk doc)
  in
  let seeds specs reads count = Printf.sprintf "specs=%d reads=%d count=%d" specs reads count in
  List.iter
    (fun path ->
      let x = Exec.cold_run ~ordered:false xmark path (Plan.xscan ()) in
      let m = Multi.run ~cold:true xmark [ path ] in
      check bool (Path.to_string path ^ ": seeds") true (x.Exec.metrics.Exec.specs_created > 0);
      check Alcotest.string (Path.to_string path ^ ": shared scan seeds like XScan")
        (seeds x.Exec.metrics.Exec.specs_created x.Exec.metrics.Exec.page_reads x.Exec.count)
        (seeds m.Multi.metrics.Exec.specs_created m.Multi.metrics.Exec.page_reads
           m.Multi.counts.(0)))
    (Queries.q6'.Queries.paths @ Queries.q7.Queries.paths)

let tests =
  [
    Alcotest.test_case "stream pulls lazily and ends with None" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:40 () in
        let store, _ = Gen.import_store ~payload:220 doc in
        let path = Xpath_parser.parse "//b" in
        let stream = Exec.prepare store path (Plan.xscan ()) in
        let rec drain n =
          match Exec.stream_next stream with None -> n | Some _ -> drain (n + 1)
        in
        let n = drain 0 in
        check int "all results" (Eval_ref.count doc path) n;
        check bool "None is final" true (Exec.stream_next stream = None);
        check bool "no fallback" false (Xnav_core.Context.fallback (Exec.stream_ctx stream)));
    Alcotest.test_case "abandoned stream leaves pins only until released" `Quick (fun () ->
        (* XSchedule holds its current cluster pinned between pulls — an
           abandoned stream may keep one pin (documented behaviour); a
           drained one must not. *)
        let doc = Gen.wide_tree ~children:40 () in
        let store, _ = Gen.import_store ~payload:220 doc in
        let stream = Exec.prepare store (Xpath_parser.parse "//b") (Plan.xschedule ()) in
        let rec drain () = match Exec.stream_next stream with None -> () | Some _ -> drain () in
        drain ();
        check int "pins" 0 (Buffer_manager.pinned_count (Store.buffer store)));
    Alcotest.test_case "metrics: total = io + cpu; reads split cleanly" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:80 () in
        let store, _ = Gen.import_store ~payload:220 ~capacity:8 doc in
        List.iter
          (fun plan ->
            let m = (Exec.cold_run ~ordered:false store (Xpath_parser.parse "//x") plan).Exec.metrics in
            check bool "total" true
              (abs_float (m.Exec.total_time -. (m.Exec.io_time +. m.Exec.cpu_time)) < 1e-9);
            check int "split" m.Exec.page_reads (m.Exec.sequential_reads + m.Exec.random_reads);
            check bool "io nonneg" true (m.Exec.io_time >= 0.))
          [ Plan.simple; Plan.xschedule (); Plan.xscan () ]);
    Alcotest.test_case "async requests pay the dispatch overhead" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 10 do
          ignore (Disk.alloc d)
        done;
        Disk.reset_clock d;
        let sched = Xnav_storage.Io_scheduler.create d in
        Xnav_storage.Io_scheduler.submit sched 5;
        (match Xnav_storage.Io_scheduler.complete_one sched with
        | Some _ -> ()
        | None -> Alcotest.fail "expected completion");
        let direct = Disk.read_cost d 5 in
        check bool "overhead charged" true
          (Disk.elapsed d > direct -. 1e-12));
    Alcotest.test_case "Disk.charge advances the clock verbatim" `Quick (fun () ->
        let d = Disk.create () in
        Disk.charge d 0.125;
        check bool "charged" true (abs_float (Disk.elapsed d -. 0.125) < 1e-12));
    Alcotest.test_case "ordered=false skips sorting but not dedup" `Quick (fun () ->
        let doc = Gen.sample_doc () in
        let store, _ = Gen.import_store ~payload:200 doc in
        let path = Xpath_parser.parse "//A//B" in
        let r = Exec.cold_run ~ordered:false store path (Plan.Simple { dedup_intermediate = false }) in
        check int "dedup still applies" (Eval_ref.count doc path) r.Exec.count);
    Alcotest.test_case "plan explain renders all shapes" `Quick (fun () ->
        let path = Xpath_parser.parse "/a//b" in
        List.iter
          (fun plan ->
            let rendered = Format.asprintf "%a" Plan.explain (path, plan) in
            check bool (Plan.name plan) true (String.length rendered > 10))
          [ Plan.simple; Plan.xschedule (); Plan.xscan ~seeding:Plan.Dslash (); Plan.xscan () ];
        (* The seeding shows in the name and the operator tree. *)
        List.iter
          (fun (name, plan) ->
            check Alcotest.string name name (Plan.name plan);
            let rendered = Format.asprintf "%a" Plan.explain (path, plan) in
            check bool (name ^ " renders its seeding") true
              (Gen.contains rendered "summary seeds"))
          [
            ("xscan+summary", Plan.xscan ~seeding:Plan.Summary ());
            ("xschedule+spec+summary", Plan.xschedule ~seeding:Plan.Summary ());
          ]);
    Alcotest.test_case "plan_for rewrites when asked" `Quick (fun () ->
        let store, _ = Gen.import_store (Gen.sample_doc ()) in
        let raw = Xpath_parser.parse "/A//B" in
        let rewritten, _ = Compile.plan_for ~rewrite:true store raw in
        let untouched, _ = Compile.plan_for store raw in
        check int "shorter" (Path.length raw - 1) (Path.length rewritten);
        check bool "same without flag" true (Path.equal raw untouched));
    Alcotest.test_case "trace hook fires for reordered plans" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:50 () in
        let store, _ = Gen.import_store ~payload:220 doc in
        let events = ref 0 in
        ignore
          (Exec.cold_run ~trace:(fun _ -> incr events) ~ordered:false store
             (Xpath_parser.parse "//b") (Plan.xscan ()));
        check bool "events seen" true (!events > 0));
    Alcotest.test_case "empty path is rejected" `Quick (fun () ->
        let store, _ = Gen.import_store (Gen.sample_doc ()) in
        match Exec.cold_run store [] Plan.simple with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "one statement, every driver, same counters" `Quick
      every_driver_same_counters;
  ]

let suite = [ ("exec", tests) ]
