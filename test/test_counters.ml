(* Run-counter accounting: the invariant sweep's knob-off-zero and
   non-negative checks, driven directly on a context whose counters are
   set by hand. *)

module Store = Xnav_store.Store
module Context = Xnav_core.Context
module Invariant = Xnav_core.Invariant

let check = Alcotest.check

(* A quiescent store: nothing pinned, nothing pending, so the only
   violations [post_run] can find are the counter checks under test. *)
let store () = fst (Gen.import_store ~payload:220 (Gen.sample_doc ()))

(* One guarded counter: how to switch its knob, how to bump it, and the
   message the sweep must print when it is 1 with the knob off. *)
type guarded = {
  counter : string;
  knob : bool -> Context.config;
  bump : Context.counters -> unit;
  message : string;
}

let default = Context.default_config

let guarded =
  let swizzle swizzling = { default with Context.swizzling } in
  let scan_window on = { default with Context.scan_threshold = (if on then 0.5 else 0.0) } in
  let coalescing on = { default with Context.coalesce_window = (if on then 16 else 0) } in
  let fused on = Context.set_fused on default in
  let scan_resistant on = Context.set_scan_resistant on default in
  let cache on = Context.set_result_cache on default in
  let cache_message h m e s =
    Printf.sprintf
      "cache: hits %d / misses %d / evictions %d / shared %d recorded while the result cache is off"
      h m e s
  in
  [
    {
      counter = "swizzle_hits";
      knob = swizzle;
      bump = (fun c -> c.Context.swizzle_hits <- 1);
      message = "swizzle: 1 cache hits recorded while swizzling is off";
    };
    {
      counter = "scan_windows";
      knob = scan_window;
      bump = (fun c -> c.Context.scan_windows <- 1);
      message = "scan-window: 1 windows opened while the hybrid is disabled";
    };
    {
      counter = "batched_reads";
      knob = coalescing;
      bump = (fun c -> c.Context.batched_reads <- 1);
      message = "coalesce: 1 batches / 0 pages / 0 coalesced recorded while coalescing is off";
    };
    {
      counter = "batch_pages";
      knob = coalescing;
      bump = (fun c -> c.Context.batch_pages <- 1);
      message = "coalesce: 0 batches / 1 pages / 0 coalesced recorded while coalescing is off";
    };
    {
      counter = "coalesce_runs";
      knob = coalescing;
      bump = (fun c -> c.Context.coalesce_runs <- 1);
      message = "coalesce: 0 batches / 0 pages / 1 coalesced recorded while coalescing is off";
    };
    {
      counter = "fused_transitions";
      knob = fused;
      bump = (fun c -> c.Context.fused_transitions <- 1);
      message = "fused: 1 transitions / 0 states recorded while fused evaluation is off";
    };
    {
      counter = "fused_states";
      knob = fused;
      bump = (fun c -> c.Context.fused_states <- 1);
      message = "fused: 0 transitions / 1 states recorded while fused evaluation is off";
    };
    {
      counter = "scan_resist_hits";
      knob = scan_resistant;
      bump = (fun c -> c.Context.scan_resist_hits <- 1);
      message = "2q: 1 protected hits recorded while scan-resistant eviction is off";
    };
    {
      counter = "cache_hits";
      knob = cache;
      bump = (fun c -> c.Context.cache_hits <- 1);
      message = cache_message 1 0 0 0;
    };
    {
      counter = "cache_misses";
      knob = cache;
      bump = (fun c -> c.Context.cache_misses <- 1);
      message = cache_message 0 1 0 0;
    };
    {
      counter = "cache_evictions";
      knob = cache;
      bump = (fun c -> c.Context.cache_evictions <- 1);
      message = cache_message 0 0 1 0;
    };
    {
      counter = "shared_demand";
      knob = cache;
      bump = (fun c -> c.Context.shared_demand <- 1);
      message = cache_message 0 0 0 1;
    };
  ]

let violations_with g ~on =
  let store = store () in
  let ctx = Context.create ~config:(g.knob on) store in
  g.bump ctx.Context.counters;
  Invariant.post_run ctx

let knob_off_is_reported () =
  List.iter
    (fun g ->
      let found = violations_with g ~on:false in
      check Alcotest.bool
        (Printf.sprintf "%s knob off: %S among %s" g.counter g.message (String.concat "; " found))
        true (List.mem g.message found))
    guarded

let knob_on_is_clean () =
  List.iter
    (fun g ->
      let found = violations_with g ~on:true in
      check Alcotest.bool
        (Printf.sprintf "%s knob on: no knob-off violation in %s" g.counter
           (String.concat "; " found))
        false (List.mem g.message found))
    guarded

let negative_is_reported () =
  let store = store () in
  let ctx = Context.create store in
  check Alcotest.(list string) "a fresh context is clean" [] (Invariant.post_run ctx);
  ctx.Context.counters.Context.instances <- -1;
  check Alcotest.(list string) "negative counter" [ "counter instances is negative (-1)" ]
    (Invariant.post_run ctx)

(* Each knob is declared once: every [Counters.knob] variant has exactly
   one [Context.knobs] row, which guards at least one counter, reads
   back what it sets, names a tier of [Differential.tiers] if it names
   one, and promises only rows of [Counters.table]. *)
let knob_table_is_complete () =
  let module Counters = Xnav_core.Counters in
  let variants =
    Counters.[ Swizzling; Scan_window; Coalescing; Fused_chain; Scan_resistant; Result_cache ]
  in
  (* A new variant breaks this exhaustive match: list it above too. *)
  let (_ : Counters.knob -> unit) = function
    | Swizzling | Scan_window | Coalescing | Fused_chain | Scan_resistant | Result_cache -> ()
  in
  check Alcotest.int "one row per variant" (List.length variants) (List.length Context.knobs);
  List.iter
    (fun (k : Context.knob) ->
      let name = k.Context.name in
      check Alcotest.int
        (Printf.sprintf "%s: the only row of its variant" name)
        1
        (List.length
           (List.filter (fun (j : Context.knob) -> j.Context.guard = k.Context.guard) Context.knobs));
      check Alcotest.bool
        (Printf.sprintf "%s: guards a counter" name)
        true
        (List.exists
           (fun (row : Counters.row) ->
             match row.Counters.zero_unless with Some (g, _) -> g = k.Context.guard | None -> false)
           Counters.table);
      List.iter
        (fun on ->
          check Alcotest.bool
            (Printf.sprintf "%s: set %b reads back" name on)
            on
            (k.Context.enabled (k.Context.set on default)))
        [ false; true ];
      Option.iter
        (fun tier ->
          check Alcotest.bool
            (Printf.sprintf "%s: tier %s exists" name tier)
            true
            (Xnav_check.Differential.find_tier tier <> None))
        k.Context.tier;
      List.iter
        (fun row ->
          check Alcotest.bool
            (Printf.sprintf "%s: promised row %s is in the table" name row)
            true
            (List.exists (fun (r : Counters.row) -> r.Counters.name = row) Counters.table))
        k.Context.promise.Context.same_rows)
    Context.knobs;
  List.iter
    (fun v ->
      check Alcotest.bool "every variant has a row" true
        (List.exists (fun (k : Context.knob) -> k.Context.guard = v) Context.knobs))
    variants

(* The plan's speculative flag decides what runs, with or without an
   explicit config: on XMark sf 0.1 (fidelity 0.05, BFS layout, 512-byte
   pages) a non-speculative XSchedule plan creates no speculation either
   way, and [Plan.name] says so. *)
let speculation_follows_the_plan () =
  let module Import = Xnav_store.Import in
  let module Exec = Xnav_core.Exec in
  let module Plan = Xnav_core.Plan in
  let module Xmark = Xnav_xmark.Gen in
  let doc =
    Xmark.generate ~config:{ Xmark.default_config with Xmark.scale = 0.1; fidelity = 0.05 } ()
  in
  let store, _ = Gen.import_store ~strategy:Import.Bfs ~page_size:512 doc in
  let path =
    Xnav_xpath.Path.from_root_element (Xnav_xpath.Xpath_parser.parse "/site//keyword")
  in
  let specs ?config plan =
    (Exec.cold_run ?config store path plan).Exec.metrics.Exec.specs_created
  in
  let off = Plan.xschedule ~speculative:false () in
  check Alcotest.string "name of the non-speculative plan" "xschedule" (Plan.name off);
  check Alcotest.int "no config" 0 (specs off);
  check Alcotest.int "default config" 0 (specs ~config:Context.default_config off);
  let on = Plan.xschedule () in
  check Alcotest.string "name of the speculative plan" "xschedule+spec" (Plan.name on);
  check Alcotest.bool "the speculative plan speculates" true
    (specs ~config:Context.default_config on > 0)

(* The committed baseline's row keys are the bench harness's row header,
   the result count, then exactly the table's bench keys in table order:
   deriving the row from the table kept the xnav-bench/8 keys byte-stable, and
   xnav-bench/9 appended minor_words. *)
let bench_keys_are_pinned () =
  let module Json = Xnav_bench.Json in
  let derived =
    List.map fst (Xnav_core.Counters.bench_fields (Xnav_core.Counters.create ()))
  in
  check Alcotest.int "count .. minor_words" 42 (List.length ("count" :: derived));
  let expected = [ "query"; "plan"; "scale"; "nodes"; "pages"; "count" ] @ derived in
  let rows =
    match Json.member "rows" (Json.read "../BENCH_results.json") with
    | Some (Json.List rows) ->
      List.map (function Json.Obj fields -> List.map fst fields | _ -> []) rows
    | _ -> []
  in
  check Alcotest.bool "baseline has rows" true (rows <> []);
  List.iteri
    (fun i keys -> check Alcotest.(list string) (Printf.sprintf "row %d keys" i) expected keys)
    rows

let suite =
  [
    ( "counters",
      [
        Alcotest.test_case "knob off: a guarded counter at 1 is reported" `Quick
          knob_off_is_reported;
        Alcotest.test_case "knob on: a guarded counter at 1 is no knob-off violation" `Quick
          knob_on_is_clean;
        Alcotest.test_case "a negative counter is reported" `Quick negative_is_reported;
        Alcotest.test_case "every knob has exactly one row in the knob table" `Quick
          knob_table_is_complete;
        Alcotest.test_case "speculation follows the plan under any config" `Quick
          speculation_follows_the_plan;
        Alcotest.test_case "baseline rows carry exactly the table's bench keys" `Quick
          bench_keys_are_pinned;
      ] );
  ]
