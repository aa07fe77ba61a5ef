(* One workload per process:

     suite.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
               [--smoke] [--statements FILE]

   Generates the workload's inputs from the seed, sets it up several
   times, runs one warm-up pass, then runs passes until [--seconds] of
   measurement have passed, checking every answer. The last line of
   standard output is one JSON object: correct, attempted, failed and the
   metrics — the end-to-end ones, or with [--trace 1] the per-layer ones
   (then the spans are written to .perfbench/bench-trace-NAME.jsonl).
   Exits 1 if any check failed. run.py builds this program and drives
   it; see README.md. *)

open Workloads

let workdir = ".perfbench"

type metric = { name : string; unit : string; value : float; samples : int }

let m ?(samples = 0) name unit value = { name; unit; value; samples }

(* Each statement's median latency over the passes. *)
let median_latency (passes : pass list) =
  match passes with
  | [] -> [||]
  | p :: _ ->
    Array.mapi
      (fun i _ -> Util.median (List.map (fun (q : pass) -> q.latencies.(i)) passes))
      p.latencies

(* The latency samples of a run. Serial workloads repeat the same
   statements in every pass, so each statement counts with its median
   over the passes: a slow moment of the machine then moves one pass's
   sample only. Engine workloads change the job order from pass to pass,
   so every job of every pass counts, each with [share], the run's median
   CPU time per job, added to its simulated latency. *)
let latency_samples (w : prepared) ~share passes =
  if w.keyed then Array.to_list (median_latency passes)
  else
    List.concat_map (fun (p : pass) -> Array.to_list (Array.map (( +. ) share) p.latencies)) passes

(* The median over the passes of the measured CPU seconds per statement.
   The simulated disk time of a pass depends on its statement order only,
   so the metrics sum it over every pass; the measured time also depends
   on how busy the host is, so they take its median. *)
let cpu_per_stmt passes = Util.median (List.map (fun (p : pass) -> Util.per p.cpu p.stmts) passes)

let end_to_end (w : prepared) ~untraced ~heap_words =
  let share = cpu_per_stmt untraced in
  let latencies = latency_samples w ~share untraced in
  let stmts = List.fold_left (fun a (p : pass) -> a + p.stmts) 0 untraced in
  let sim = List.fold_left (fun a (p : pass) -> a +. p.sim) 0.0 untraced in
  [
    m ~samples:(List.length w.setups) "setup_s" "s" (Util.median (List.map setup_total w.setups));
    m ~samples:stmts "latency_p50_ms" "ms" (1e3 *. Util.percentile latencies 50.0);
    m ~samples:stmts "latency_p99_ms" "ms" (1e3 *. Util.percentile latencies 99.0);
    m ~samples:stmts "throughput_qps" "1/s"
      (Util.ratio (float_of_int stmts) (sim +. (share *. float_of_int stmts)));
    m ~samples:1 "heap_peak_mb" "MB"
      (float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.0);
  ]

let per_layer (w : prepared) bag ~untraced ~traced =
  let g = get bag in
  let stmts = g "stmts" and passes = g "passes" in
  let per_stmt k = Util.ratio (g k) stmts and per_pass k = Util.ratio (g k) passes in
  let spans = Trace.all () in
  let self = Trace.self_times spans in
  let traced_stmts = List.fold_left (fun a (p : pass) -> a + p.stmts) 0 traced in
  let exec_s =
    List.fold_left
      (fun a (s : Trace.span) ->
        match s.Trace.name with
        | "exec.run" | "workload.run_clients" | "shard.run_clients" ->
          a +. (s.Trace.stop -. s.Trace.start)
        | _ -> a)
      0.0 spans
  in
  let setup f = Util.median (List.map f w.setups) in
  let extras = w.extras ~latency:(median_latency untraced) ~traced:true in
  let extra k = Option.value (List.assoc_opt k extras) ~default:0.0 in
  [
    m "xpath_parser.parse_us" "us" (1e6 *. Trace.mean_self self "xpath_parser.parse");
    m "compile.plan_us" "us" (1e6 *. Trace.mean_self self "compile.plan");
    m "exec.run_us" "us" (1e6 *. Util.per exec_s traced_stmts);
    m "import.run_s" "s" (setup (fun s -> s.import_s));
    m "image.save_s" "s" (setup (fun s -> s.save_s));
    m "image.load_s" "s" (setup (fun s -> s.load_s));
    m "trace.overhead_pct" "%"
      (100.0 *. (Util.ratio (cpu_per_stmt traced) (cpu_per_stmt untraced) -. 1.0));
    m "compile.auto_regret" "ratio" (extra "compile.auto_regret");
    m "exec.instances_per_result" "ratio" (Util.ratio (g "exec.instances") (g "results"));
    m "exec.fused_transitions_per_stmt" "count" (per_stmt "exec.fused_transitions");
    m "exec.spec_resolved_frac" "ratio"
      (Util.ratio (g "exec.specs_resolved") (g "exec.specs_stored"));
    m "exec.s_peak" "count" (g "exec.s_peak");
    m "exec.q_peak" "count" (g "exec.q_peak");
    m "exec.fallbacks" "count" (per_pass "exec.fallbacks");
    m "store.swizzle_hit_rate" "ratio"
      (Util.ratio (g "store.swizzle_hits") (g "store.swizzle_hits" +. g "store.swizzle_misses"));
    m "store.index_entries_per_stmt" "count" (per_stmt "store.index_entries");
    m "buffer_manager.lookups_per_stmt" "count" (per_stmt "buffer.lookups");
    m "buffer_manager.hit_rate" "ratio"
      (Util.ratio (g "buffer.hits") (g "buffer.hits" +. g "buffer.misses" +. g "buffer.async"));
    m "buffer_manager.evictions_per_stmt" "count" (per_stmt "buffer.evictions");
    m "buffer_manager.scan_resist_hits" "count" (per_pass "buffer.scan_resist_hits");
    m "io_scheduler.async_reads_per_stmt" "count" (per_stmt "buffer.async");
    m "io_scheduler.pages_per_batch" "ratio" (Util.ratio (g "disk.batch_pages") (g "disk.batches"));
    m "io_scheduler.coalesced_frac" "ratio" (Util.ratio (g "disk.coalesced") (g "disk.batches"));
    m "disk.busy_s_per_stmt" "sim_s" (per_stmt "disk.busy");
    m "disk.reads_per_stmt" "count" (per_stmt "disk.reads");
    m "disk.random_frac" "ratio" (Util.ratio (g "disk.random") (g "disk.reads"));
    m "disk.seek_pages_per_random" "count" (Util.ratio (g "disk.seek") (g "disk.random"));
    m "disk.writes" "count" (per_pass "disk.writes");
    m "result_cache.hit_rate" "ratio" (Util.ratio (g "cache.hits") (g "cache.lookups"));
    m "result_cache.evictions" "count" (per_pass "cache.evictions");
    m "result_cache.stales" "count" (per_pass "cache.stales");
    m "workload.shared_jobs" "count" (per_pass "workload.shared");
    m "workload.turns_per_job" "ratio" (Util.ratio (g "workload.turns") (g "workload.jobs"));
    m "workload.yields_per_job" "ratio" (Util.ratio (g "workload.yields") (g "workload.jobs"));
    m "workload.boosts_per_job" "ratio" (Util.ratio (g "workload.boosts") (g "workload.jobs"));
    m "workload.admission_wait_p99_s" "sim_s" (extra "workload.admission_wait_p99_s");
    m "workload.starved_per_served" "ratio"
      (Util.ratio (g "workload.starved") (g "workload.served"));
    m "workload.snapshot_retries_per_reader" "ratio"
      (Util.ratio (g "workload.snapshot_retries") (g "workload.readers"));
    m "workload.latch_waits" "count" (per_pass "workload.latch_waits");
    m "workload.commits" "count" (per_pass "workload.commits");
    m "workload.recovered" "count" (per_pass "workload.recovered");
    m "workload.max_concurrent" "count" (g "workload.max_concurrent");
    m "workload.sharing_factor" "ratio" (extra "workload.sharing_factor");
    m "shard.rebalance_moves" "count" (per_pass "shard.rebalance_moves");
    m "shard.tenant_p99_spread" "ratio" (extra "shard.tenant_p99_spread");
    m "shard.busiest_share" "ratio" (extra "shard.busiest_share");
    m "shard.colocation_speedup" "ratio" (extra "shard.colocation_speedup");
  ]

let write_lines file lines =
  let oc = open_out file in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let run ~name ~seed ~seconds ~trace ~smoke ~statements =
  let make =
    match List.assoc_opt name Workloads.all with
    | Some f -> f
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" name
        (String.concat ", " (List.map fst Workloads.all));
      exit 2
  in
  if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755;
  let w = make { seed; smoke; workdir; name } in
  Option.iter (fun file -> write_lines file w.statements) statements;
  (* Each pass starts from a collected heap, so no pass pays for the
     garbage of the one before. *)
  Gc.full_major ();
  ignore (w.pass ~first:true (Hashtbl.create 64));
  let bag = Hashtbl.create 64 in
  let untraced = ref [] and traced = ref [] in
  (* The heap's peak is read after the first two measured passes, the
     least a run measures, so it does not grow with the number of passes
     the machine's speed allowed. *)
  let heap_words = ref 0 in
  let deadline = Util.now () +. seconds in
  (* In a traced run, traced and untraced passes alternate, so the
     tracing overhead is measured under the same conditions. *)
  let rec loop i =
    let tracing = trace && i mod 2 = 1 in
    Gc.full_major ();
    Trace.enabled := tracing;
    let p = w.pass ~first:false bag in
    Trace.enabled := false;
    add bag "passes" 1.0;
    if tracing then traced := p :: !traced else untraced := p :: !untraced;
    if List.length !untraced = 2 && !heap_words = 0 then
      heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    let enough =
      if trace then !untraced <> [] && !traced <> [] else List.length !untraced >= 2
    in
    if not (enough && Util.now () >= deadline) then loop (i + 1)
  in
  loop 0;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let metrics =
    if trace then begin
      let file = Filename.concat workdir (Printf.sprintf "bench-trace-%s.jsonl" name) in
      Trace.write file;
      Printf.printf "%s: wrote %d spans to %s\n" name (List.length (Trace.all ())) file;
      per_layer w bag ~untraced ~traced
    end
    else end_to_end w ~untraced ~heap_words:!heap_words
  in
  let passes = List.length untraced + List.length traced in
  Printf.printf "%s: seed %d, %d measured passes, %d statements generated\n" name seed passes
    (List.length w.statements);
  List.iter
    (fun x ->
      Printf.printf "  %-36s %14.6f %-6s%s\n" x.name x.value x.unit
        (if x.samples > 0 then Printf.sprintf " (%d samples)" x.samples else ""))
    metrics;
  Option.iter (fun e -> Printf.printf "first failure: %s\n" e) tally.first_error;
  print_endline
    (Util.jobj
       [
         ("correct", if tally.failed = 0 then "true" else "false");
         ("attempted", string_of_int tally.attempted);
         ("failed", string_of_int tally.failed);
         ( "metrics",
           Util.jobj
             (List.map
                (fun x ->
                  ( x.name,
                    Util.jobj [ ("value", Util.jfloat x.value); ("unit", Util.jstring x.unit) ] ))
                metrics) );
       ]);
  exit (if tally.failed = 0 then 0 else 1)

let () =
  let name = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke = ref false and statements = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string name, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measurement time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run");
      ("--smoke", Arg.Set smoke, " toy input sizes");
      ("--statements", Arg.String (fun f -> statements := Some f), "FILE write the statement list");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "suite.exe --workload NAME [options]";
  if !name = "" then begin
    prerr_endline "suite.exe: --workload is required";
    exit 2
  end;
  run ~name:!name ~seed:!seed ~seconds:!seconds ~trace:(!trace <> 0) ~smoke:!smoke
    ~statements:!statements
