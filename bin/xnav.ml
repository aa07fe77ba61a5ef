(* xnav — command-line front end.

   Documents come from three sources: an XML file (parsed and imported
   on the fly), the built-in XMark generator, or a persisted disk image
   created by [xnav import]. Queries accept the full extended syntax
   (predicates, unions); plain downward paths run through the reordered
   physical plans, everything else through the hybrid executor. *)

module Tree = Xnav_xml.Tree
module Xml_parser = Xnav_xml.Xml_parser
module Xml_writer = Xnav_xml.Xml_writer
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Io_scheduler = Xnav_storage.Io_scheduler
module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Image = Xnav_store.Image
module Export = Xnav_store.Export
module Path = Xnav_xpath.Path
module Query = Xnav_xpath.Query
module Rewrite = Xnav_xpath.Rewrite
module Xpath_parser = Xnav_xpath.Xpath_parser
module Plan = Xnav_core.Plan
module Compile = Xnav_core.Compile
module Exec = Xnav_core.Exec
module Query_exec = Xnav_core.Query_exec
module Context = Xnav_core.Context
module Xmark_gen = Xnav_xmark.Gen
module Workload = Xnav_workload.Workload

open Cmdliner

(* --- shared arguments ---------------------------------------------------- *)

let scale =
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"F" ~doc:"XMark scaling factor.")

let fidelity =
  Arg.(
    value
    & opt float 0.05
    & info [ "fidelity" ] ~docv:"F" ~doc:"Entity-count multiplier for the XMark generator.")

let seed = Arg.(value & opt int 20050614 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")

let input_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "i"; "input" ] ~docv:"FILE"
        ~doc:"XML document to load. Without it (or --image), XMark is generated.")

let image_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "image" ] ~docv:"FILE" ~doc:"Persisted disk image to open (see the import command).")

let page_size =
  Arg.(value & opt int 8192 & info [ "page-size" ] ~docv:"BYTES" ~doc:"Disk page size.")

let capacity =
  Arg.(
    value & opt int 1000 & info [ "buffer" ] ~docv:"PAGES" ~doc:"Buffer pool capacity in pages.")

let policy =
  let parse s =
    match Io_scheduler.policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown policy %S" s))
  in
  let print ppf p = Fmt.string ppf (Io_scheduler.policy_to_string p) in
  Arg.(
    value
    & opt (conv (parse, print)) Io_scheduler.Elevator
    & info [ "io-policy" ] ~docv:"POLICY" ~doc:"Async I/O policy: fifo, sstf, elevator, cscan.")

let strategy =
  let parse = function
    | "dfs" -> Ok Import.Dfs
    | "bfs" -> Ok Import.Bfs
    | s when String.length s > 10 && String.sub s 0 10 = "scattered:" ->
      (try Ok (Import.Scattered (int_of_string (String.sub s 10 (String.length s - 10))))
       with Failure _ -> Error (`Msg "scattered:<seed> expects an integer"))
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  let print ppf s = Fmt.string ppf (Import.strategy_to_string s) in
  Arg.(
    value
    & opt (conv (parse, print)) Import.Dfs
    & info [ "clustering" ] ~docv:"STRATEGY" ~doc:"Import clustering: dfs, bfs, scattered:SEED.")

let plan_choice =
  let parse = function
    | "auto" -> Ok Compile.Auto
    | "simple" -> Ok Compile.Force_simple
    | "xschedule" | "schedule" -> Ok Compile.Force_schedule
    | "xscan" | "scan" -> Ok Compile.Force_scan
    | "xindex" | "index" -> Ok Compile.Force_index
    | s -> Error (`Msg (Printf.sprintf "unknown plan %S" s))
  in
  let print ppf = function
    | Compile.Auto -> Fmt.string ppf "auto"
    | Compile.Force_simple -> Fmt.string ppf "simple"
    | Compile.Force_schedule -> Fmt.string ppf "xschedule"
    | Compile.Force_scan -> Fmt.string ppf "xscan"
    | Compile.Force_index -> Fmt.string ppf "xindex"
  in
  Arg.(
    value
    & opt (conv (parse, print)) Compile.Auto
    & info [ "plan" ] ~docv:"PLAN"
        ~doc:"Plan: auto (cost-based), simple, xschedule, xscan, xindex.")

(* XPath text is parsed by cmdliner, so a malformed path is a usage
   error (exit 124) with the parser's message. *)
let xpath parse =
  let parse s =
    match parse s with
    | v -> Ok (s, v)
    | exception Xpath_parser.Parse_error { position; message } ->
      Error (`Msg (Printf.sprintf "malformed XPath %S at offset %d: %s" s position message))
  in
  Arg.conv (parse, fun ppf (s, _) -> Fmt.string ppf s)

let path_arg parse =
  Arg.(
    required & pos 0 (some (xpath parse)) None & info [] ~docv:"PATH" ~doc:"XPath location path.")

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print result NodeIDs, not only the count.")

let rewrite_flag =
  Arg.(value & flag & info [ "rewrite" ] ~doc:"Normalise the path logically before planning.")

let no_fused_flag =
  Arg.(
    value & flag
    & info [ "no-fused" ]
        ~doc:
          "Evaluate reordered plans with the historical per-step XStep iterator chain instead \
           of the fused automaton (same results and I/O, higher CPU).")

let no_cache_flag =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the repeat-traffic front door: no result-cache consultation before planning \
           and (for workloads) no cross-client shared-scan dedup. Every statement re-executes \
           from scratch, reproducing the historical engine exactly.")

(* --- document setup ------------------------------------------------------- *)

let obtain_store ~image ~input ~scale ~fidelity ~seed ~page_size ~capacity ~policy ~strategy =
  match image with
  | Some file -> begin
    match Image.load ~capacity ~policy file with
    | store :: _ -> store
    | [] -> failwith "image contains no documents"
  end
  | None ->
    let doc =
      match input with
      | Some file -> Xml_parser.parse_file file
      | None -> Xmark_gen.generate ~config:{ Xmark_gen.scale; fidelity; seed } ()
    in
    let config = { Disk.default_config with Disk.page_size } in
    let disk = Disk.create ~config () in
    let import = Import.run ~strategy disk doc in
    let buffer = Buffer_manager.create ~capacity ~policy disk in
    Store.attach buffer import

let common_store_term =
  Term.(
    const
      (fun image input scale fidelity seed page_size capacity policy strategy ->
        obtain_store ~image ~input ~scale ~fidelity ~seed ~page_size ~capacity ~policy ~strategy)
    $ image_file $ input_file $ scale $ fidelity $ seed $ page_size $ capacity $ policy
    $ strategy)

(* --- gen ------------------------------------------------------------------ *)

let gen_cmd =
  let output =
    Arg.(
      required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let run scale fidelity seed output =
    let doc = Xmark_gen.generate ~config:{ Xmark_gen.scale; fidelity; seed } () in
    Xml_writer.to_file ~declaration:true output doc;
    Printf.printf "wrote %s: %d elements, height %d\n" output (Tree.size doc) (Tree.height doc)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate an XMark document to an XML file.")
    Term.(const run $ scale $ fidelity $ seed $ output)

(* --- import ----------------------------------------------------------------- *)

let import_cmd =
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"IMAGE" ~doc:"Disk image to write.")
  in
  let run input scale fidelity seed page_size strategy output =
    let doc =
      match input with
      | Some file -> Xml_parser.parse_file file
      | None -> Xmark_gen.generate ~config:{ Xmark_gen.scale; fidelity; seed } ()
    in
    let config = { Disk.default_config with Disk.page_size } in
    let disk = Disk.create ~config () in
    let import = Import.run ~strategy disk doc in
    let buffer = Buffer_manager.create ~capacity:8 disk in
    let store = Store.attach buffer import in
    Image.save output [ store ];
    Printf.printf "imported %d elements onto %d pages (%s clustering) -> %s\n"
      import.Import.node_count import.Import.page_count
      (Import.strategy_to_string strategy)
      output
  in
  Cmd.v
    (Cmd.info "import" ~doc:"Cluster a document onto a simulated disk and persist the image.")
    Term.(const run $ input_file $ scale $ fidelity $ seed $ page_size $ strategy $ output)

(* --- stats ------------------------------------------------------------------ *)

let stats_cmd =
  let run store =
    Printf.printf "document:   %d elements, height %d\n" (Store.node_count store)
      (Store.height store);
    Printf.printf "storage:    pages %d..%d\n" (Store.first_page store)
      (Store.first_page store + Store.page_count store - 1);
    Printf.printf "top tags:\n";
    let sorted = List.sort (fun (_, a) (_, b) -> compare b a) (Store.tag_counts store) in
    List.iteri
      (fun i (tag, n) ->
        if i < 15 then Printf.printf "  %-20s %d\n" (Xnav_xml.Tag.to_string tag) n)
      sorted
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Show document and clustering statistics.")
    Term.(const run $ common_store_term)

(* --- explain ----------------------------------------------------------------- *)

let explain_cmd =
  let run (_, path) choice rewrite no_fused no_cache store =
    let path = Path.from_root_element path in
    let path, plan = Compile.plan_for ~choice ~rewrite store path in
    Format.printf "path:     %s@." (Path.to_string path);
    Format.printf "estimate: %a@." Compile.pp_estimate
      (Compile.estimate ~fused:(not no_fused) store path);
    if no_cache then Format.printf "cache:    off (--no-cache)@."
    else
      Format.printf "cache:    result cache on — key %S @@ mutation stamp %d@."
        (Path.to_string path) (Store.mutation_stamp store);
    Format.printf "chosen:   %s@.@.%a@." (Plan.name plan)
      (Plan.explain_with ~fused:(not no_fused))
      (path, plan)
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Show the compiled plan and cost estimate for a path.")
    Term.(
      const run $ path_arg Xpath_parser.parse $ plan_choice $ rewrite_flag $ no_fused_flag
      $ no_cache_flag $ common_store_term)

(* --- query ---------------------------------------------------------------------- *)

let query_cmd =
  let k_arg =
    Arg.(value & opt int 100 & info [ "k" ] ~docv:"N" ~doc:"XSchedule queue minimum.")
  in
  let budget =
    Arg.(
      value
      & opt int 1_000_000
      & info [ "memory-budget" ] ~docv:"N" ~doc:"Max speculative instances before fallback.")
  in
  let coalesce_window =
    Arg.(
      value
      & opt int Context.default_config.Context.coalesce_window
      & info [ "coalesce-window" ] ~docv:"N"
          ~doc:"Max contiguous pages per coalesced async read (0 disables batching).")
  in
  let scan_threshold =
    Arg.(
      value
      & opt float Context.default_config.Context.scan_threshold
      & info [ "scan-threshold" ] ~docv:"F"
          ~doc:"Visited-region density above which XSchedule streams ahead (<= 0 disables).")
  in
  let run (_, query) choice rewrite no_fused no_cache k budget coalesce_window scan_threshold
      verbose store =
    let query = Query.from_root_element query in
    let config =
      Context.set_result_cache (not no_cache)
        (Context.set_fused (not no_fused)
           {
             Context.default_config with
             Context.k;
             memory_budget = budget;
             coalesce_window;
             scan_threshold;
           })
    in
    let print_nodes nodes =
      if verbose then
        List.iter
          (fun (i : Store.info) ->
            Format.printf "  %a  %a  %a@." Xnav_store.Node_id.pp i.Store.id Xnav_xml.Tag.pp
              i.Store.tag Xnav_xml.Ordpath.pp i.Store.ordpath)
          nodes
    in
    match query with
    | [ branch ] when not (Query.has_predicates query) ->
      (* A plain path: the full reordered machinery with metrics. *)
      let path = Query.trunk branch in
      let path, plan = Compile.plan_for ~choice ~rewrite store path in
      let result = Exec.cold_run ~config store path plan in
      Printf.printf "plan:  %s\n" (Plan.name plan);
      Printf.printf "count: %d\n" result.Exec.count;
      print_nodes result.Exec.nodes;
      Format.printf "%a@." Xnav_core.Counters.pp result.Exec.metrics
    | _ ->
      let result = Query_exec.run ~choice ~config ~cold:true store query in
      Printf.printf "plan:  hybrid (%d trunk segments, %d predicate checks)\n"
        result.Query_exec.segments result.Query_exec.predicate_checks;
      Printf.printf "count: %d\n" result.Query_exec.count;
      print_nodes result.Query_exec.nodes;
      Format.printf "%a@." Xnav_core.Counters.pp result.Query_exec.metrics
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate a location path or extended query with cost metrics.")
    Term.(
      const run $ path_arg Xpath_parser.parse_query $ plan_choice $ rewrite_flag $ no_fused_flag
      $ no_cache_flag $ k_arg $ budget $ coalesce_window $ scan_threshold $ verbose
      $ common_store_term)

(* --- check ------------------------------------------------------------------------ *)

let check_cmd =
  let module D = Xnav_check.Differential in
  let cases =
    Arg.(
      value & opt int 200 & info [ "cases" ] ~docv:"N" ~doc:"Number of sampled cases to check.")
  in
  let check_seed =
    Arg.(
      value
      & opt int D.default_seed
      & info [ "seed" ] ~docv:"N" ~doc:"Sampling seed (a given seed replays the same cases).")
  in
  let doc_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "doc-seed" ] ~docv:"N"
          ~doc:"Replay one case against the XMark document with this generator seed.")
  in
  let check_fidelity =
    Arg.(
      value
      & opt float 0.002
      & info [ "fidelity" ] ~docv:"F" ~doc:"XMark fidelity of the replayed document.")
  in
  let payload =
    Arg.(
      value & opt int 220 & info [ "payload" ] ~docv:"BYTES" ~doc:"Per-node payload at import.")
  in
  let replacement =
    let parse s =
      match Buffer_manager.replacement_of_string s with
      | Some r -> Ok r
      | None -> Error (`Msg (Printf.sprintf "unknown replacement %S" s))
    in
    let print ppf r = Fmt.string ppf (Buffer_manager.replacement_to_string r) in
    Arg.(
      value
      & opt (conv (parse, print)) Buffer_manager.Lru
      & info [ "replacement" ] ~docv:"POLICY" ~doc:"Buffer replacement: lru, mru, fifo, clock.")
  in
  let k_arg =
    Arg.(value & opt int 100 & info [ "k" ] ~docv:"N" ~doc:"XSchedule queue minimum.")
  in
  let budget =
    Arg.(
      value
      & opt int 1_000_000
      & info [ "memory-budget" ] ~docv:"N" ~doc:"Max speculative instances before fallback.")
  in
  let no_speculation =
    Arg.(value & flag & info [ "no-speculation" ] ~doc:"Disable speculative evaluation.")
  in
  let path_opt =
    Arg.(
      value
      & opt (some (xpath Xpath_parser.parse)) None
      & info [ "path" ] ~docv:"PATH" ~doc:"Location path of the replayed case.")
  in
  let tier_arg =
    let parse = function
      | "all" -> Ok D.tiers
      | name -> (
        match D.find_tier name with
        | Some t -> Ok [ t ]
        | None -> Error (`Msg (Printf.sprintf "unknown tier %S" name)))
    in
    let print ppf = function
      | [ t ] -> Fmt.string ppf t.D.name
      | _ -> Fmt.string ppf "all"
    in
    Arg.(
      value
      & opt (conv (parse, print)) (Option.to_list (D.find_tier "base"))
      & info [ "tier" ] ~docv:"TIER"
          ~doc:
            (Printf.sprintf
               "Differential tier to check: %s, or all. Samples cases, or replays the one case \
                given by $(b,--path)."
               (String.concat ", " (List.map (fun t -> t.D.name) D.tiers))))
  in
  let run cases seed doc_seed fidelity strategy page_size payload capacity policy replacement k
      budget no_speculation tiers path =
    let failed = ref false in
    (match path with
    | None ->
      (* Sampling mode. *)
      List.iter
        (fun (tier : D.tier) ->
          let name = tier.D.name in
          let report = tier.D.sample ~seed ~cases ~log:print_endline in
          Printf.printf "[%s] checked %d cases\n" name report.D.cases_run;
          if report.D.failures = [] then
            Printf.printf "[%s] all plans agree; all invariants hold\n" name
          else begin
            failed := true;
            Printf.printf "[%s] %d FAILING case(s); minimal reproducers:\n" name
              (List.length report.D.failures);
            List.iter
              (fun f ->
                Format.printf "@.%a@." D.pp_case f.D.shrunk;
                List.iter
                  (fun m -> Printf.printf "  [%s] %s\n" m.D.plan m.D.detail)
                  f.D.mismatches;
                Printf.printf "  %s\n" (D.reproducer ~tier:name f.D.shrunk))
              report.D.failures
          end)
        tiers
    | Some (_, path) ->
      (* Reproducer mode: one fully specified case, under each tier. *)
      let doc_seed = Option.value ~default:20050614 doc_seed in
      let case =
        {
          D.doc_seed;
          fidelity;
          physical =
            { D.strategy; page_size; payload; capacity; policy; replacement };
          k;
          speculative = not no_speculation;
          memory_budget = budget;
          path;
        }
      in
      Format.printf "%a@." D.pp_case case;
      List.iter
        (fun (tier : D.tier) ->
          match tier.D.check case with
          | [] ->
            Printf.printf "[%s] case passes: all plans agree; all invariants hold\n" tier.D.name
          | mismatches ->
            failed := true;
            List.iter
              (fun m -> Printf.printf "[%s] [%s] %s\n" tier.D.name m.D.plan m.D.detail)
              mismatches)
        tiers);
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differential correctness check: run every physical plan over sampled (document, path, \
          configuration) cases — or one case given via --path — and compare against the \
          reference evaluator.")
    Term.(
      const run $ cases $ check_seed $ doc_seed $ check_fidelity $ strategy $ page_size $ payload
      $ capacity $ policy $ replacement $ k_arg $ budget $ no_speculation $ tier_arg $ path_opt)

(* --- workload --------------------------------------------------------------------- *)

let workload_cmd =
  let paths_arg =
    Arg.(
      non_empty
      & pos_all (xpath Xpath_parser.parse) []
      & info [] ~docv:"PATH" ~doc:"Location paths; each becomes one job per client per round.")
  in
  let clients_arg =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc:"Number of closed-loop clients.")
  in
  let rounds_arg =
    Arg.(
      value & opt int 1 & info [ "rounds" ] ~docv:"N" ~doc:"Times each client repeats the paths.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-job deadline in simulated seconds (aborted jobs report timed-out).")
  in
  let wplan =
    let parse = function
      | "simple" -> Ok Plan.simple
      | "xschedule" | "schedule" -> Ok (Plan.xschedule ())
      | "xscan" | "scan" -> Ok (Plan.xscan ())
      | s -> Error (`Msg (Printf.sprintf "unknown plan %S" s))
    in
    let print ppf p = Fmt.string ppf (Plan.name p) in
    Arg.(
      value
      & opt (conv (parse, print)) (Plan.xschedule ())
      & info [ "plan" ] ~docv:"PLAN" ~doc:"Plan for every job: simple, xschedule, xscan.")
  in
  let quantum_arg =
    Arg.(
      value
      & opt float 0.004
      & info [ "quantum" ] ~docv:"SECONDS" ~doc:"Per-turn cost credit in simulated seconds.")
  in
  let writers_arg =
    Arg.(
      value
      & opt int 0
      & info [ "writers" ] ~docv:"K"
          ~doc:
            "Writer clients applying sampled in-place inserts and deletes alongside the readers \
             (cluster latches, snapshot reads, cluster-granular cache invalidation).")
  in
  let run paths clients rounds timeout plan quantum writers no_cache store =
    if clients < 1 || rounds < 1 then begin
      prerr_endline "xnav workload: --clients and --rounds must be positive";
      exit 2
    end;
    if writers < 0 then begin
      prerr_endline "xnav workload: --writers must be non-negative";
      exit 2
    end;
    let spec (label, path) = { Workload.label; path; plan; timeout; ops = [] } in
    (* Clients start out of phase (each rotates the path list by its
       index) so every path sees contention from the others. *)
    let rotate k xs =
      let k = k mod List.length xs in
      let rec go i acc = function
        | rest when i = 0 -> rest @ List.rev acc
        | x :: rest -> go (i - 1) (x :: acc) rest
        | [] -> List.rev acc
      in
      go k [] xs
    in
    let queues =
      Array.init clients (fun i ->
          List.concat (List.init rounds (fun _ -> List.map spec (rotate i paths))))
    in
    (* Writer clients: sampled in-place ops over the stored elements (a
       fixed LCG keeps the schedule reproducible for a given store). *)
    let queues =
      if writers = 0 then queues
      else begin
        let elements =
          (Exec.run ~ordered:false store (Xpath_parser.parse "//*") Plan.simple).Exec.nodes
        in
        let targets =
          Array.of_list (List.map (fun (i : Store.info) -> i.Store.id) elements)
        in
        let parents =
          if Array.length targets = 0 then [| Store.root store |] else targets
        in
        let tags = Array.of_list (List.map fst (Store.tag_counts store)) in
        let state = ref 0x5DEECE66D in
        let rand b =
          state := ((!state * 25214903917) + 11) land 0x3FFFFFFFFFFF;
          !state mod b
        in
        let writer_queues =
          Array.init writers (fun w ->
              let ops =
                List.init
                  (2 + rand 3)
                  (fun _ ->
                    if Array.length targets > 0 && rand 2 = 0 then
                      Workload.Delete_subtree targets.(rand (Array.length targets))
                    else
                      Workload.Insert_child
                        {
                          parent = parents.(rand (Array.length parents));
                          tag = tags.(rand (Array.length tags));
                        })
              in
              [
                {
                  Workload.label = Printf.sprintf "writer.%d" w;
                  path = snd (List.hd paths);
                  plan;
                  timeout = None;
                  ops;
                };
              ])
        in
        Array.append queues writer_queues
      end
    in
    let config = Context.set_result_cache (not no_cache) Context.default_config in
    let r = Workload.run_clients ~config ~quantum ~cold:true store queues in
    let count_status st =
      List.length (List.filter (fun (j : Workload.job) -> j.Workload.status = st) r.Workload.jobs)
    in
    let jobs = List.length r.Workload.jobs in
    Printf.printf "workload: %d clients x %d jobs each (%d paths x %d rounds), plan %s\n" clients
      (List.length paths * rounds) (List.length paths) rounds (Plan.name plan);
    Printf.printf "jobs %d: %d completed, %d recovered, %d timed out; max %d concurrent, %d turns\n"
      jobs (count_status Workload.Completed) (count_status Workload.Recovered)
      (count_status Workload.Timed_out) r.Workload.max_concurrent r.Workload.turns;
    let lats = List.map (fun (j : Workload.job) -> j.Workload.latency) r.Workload.jobs in
    let throughput =
      if r.Workload.total_time > 0.0 then float_of_int jobs /. r.Workload.total_time else 0.0
    in
    Printf.printf "throughput %.1f jobs/s   latency p50 %.4fs  p95 %.4fs  p99 %.4fs\n" throughput
      (Workload.percentile lats 50.0) (Workload.percentile lats 95.0)
      (Workload.percentile lats 99.0);
    Printf.printf "io %.4fs  page reads %d  seek %d  batched %d reads / %d pages in %d runs\n"
      r.Workload.io_time r.Workload.page_reads r.Workload.seek_distance r.Workload.batched_reads
      r.Workload.batch_pages r.Workload.coalesce_runs;
    Printf.printf "front door: %s — %d cache hits, %d installs, %d shared scans\n"
      (if no_cache then "off" else "on")
      r.Workload.cache_hits r.Workload.cache_misses r.Workload.shared_jobs;
    if writers > 0 then
      Printf.printf
        "writers: %d clients — %d commits, %d latch waits, %d snapshot retries, %d cluster \
         stales\n"
        writers r.Workload.writer_commits r.Workload.latch_waits r.Workload.snapshot_retries
        r.Workload.cluster_stales;
    Printf.printf "fairness per path:\n";
    Printf.printf "  %-28s %5s %9s %9s %7s %8s %7s %7s\n" "path" "jobs" "mean-lat" "pin-wait"
      "served" "starved" "yields" "boosts";
    List.iter
      (fun (label, _) ->
        let js =
          List.filter (fun (j : Workload.job) -> j.Workload.job_label = label) r.Workload.jobs
        in
        let n = List.length js in
        let sumf f = List.fold_left (fun a j -> a +. f j) 0.0 js in
        let sumi f = List.fold_left (fun a j -> a + f j) 0 js in
        Printf.printf "  %-28s %5d %9.4f %9.4f %7d %8d %7d %7d\n" label n
          (sumf (fun j -> j.Workload.latency) /. float_of_int (max 1 n))
          (sumf (fun j -> j.Workload.pin_wait) /. float_of_int (max 1 n))
          (sumi (fun j -> j.Workload.served_ticks))
          (sumi (fun j -> j.Workload.starved_ticks))
          (sumi (fun j -> j.Workload.yields))
          (sumi (fun j -> j.Workload.boosts)))
      paths;
    if r.Workload.violations <> [] then begin
      prerr_endline "invariant violations:";
      List.iter (fun v -> Printf.eprintf "  %s\n" v) r.Workload.violations;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Run concurrent queries as closed-loop clients over one shared buffer pool, reporting \
          latency percentiles and fairness counters.")
    Term.(
      const run $ paths_arg $ clients_arg $ rounds_arg $ timeout_arg $ wplan $ quantum_arg
      $ writers_arg $ no_cache_flag $ common_store_term)

(* --- export ----------------------------------------------------------------------- *)

let export_cmd =
  let output =
    Arg.(
      required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"XML output.")
  in
  let nav = Arg.(value & flag & info [ "navigate" ] ~doc:"Export by navigation, not by scan.") in
  let run output nav store =
    let tree = Export.document ~scan:(not nav) store in
    Xml_writer.to_file ~declaration:true output tree;
    Printf.printf "exported %d elements to %s (%s)\n" (Tree.size tree) output
      (if nav then "navigational" else "sequential scan")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Serialise a stored document back to XML.")
    Term.(const run $ output $ nav $ common_store_term)

(* --- main ------------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "xnav" ~version:"1.0.0"
      ~doc:"Cost-sensitive reordering of navigational primitives for XPath."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd;
            import_cmd;
            stats_cmd;
            explain_cmd;
            query_cmd;
            check_cmd;
            workload_cmd;
            export_cmd;
          ]))
