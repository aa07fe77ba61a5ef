(* The differential correctness tier: a deterministic sample of random
   (document, path, configuration) cases checked against the reference
   evaluator, plus focused regression tests for the I/O-scheduler
   stale-order bug, the refused-prefetch stall and pin leaks under
   near-minimal buffers. *)

module Differential = Xnav_check.Differential
module Tree = Xnav_xml.Tree
module Disk = Xnav_storage.Disk
module Io_scheduler = Xnav_storage.Io_scheduler
module Buffer_manager = Xnav_storage.Buffer_manager
module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Path = Xnav_xpath.Path
module Eval_ref = Xnav_xpath.Eval_ref
module Xpath_parser = Xnav_xpath.Xpath_parser
module Plan = Xnav_core.Plan
module Exec = Xnav_core.Exec
module Context = Xnav_core.Context
module Result_cache = Xnav_core.Result_cache
module Update = Xnav_store.Update
module Tag = Xnav_xml.Tag

let check = Alcotest.check

(* --- the sampled differential run ---------------------------------------- *)

(* Sample 200 cases of the named tier; the reproducers of the failing
   ones, each naming the tier it failed under. *)
let sample_tier name =
  match Differential.find_tier name with
  | None -> Alcotest.failf "no differential tier %S" name
  | Some tier ->
    let r = tier.Differential.sample ~seed:Gen.test_seed ~cases:200 ~log:ignore in
    check Alcotest.int "cases run" 200 r.Differential.cases_run;
    List.map
      (fun f -> Differential.reproducer ~tier:name f.Differential.shrunk)
      r.Differential.failures

let differential_sample () =
  check Alcotest.(list string) "no plan disagrees with the reference evaluator" []
    (sample_tier "base")

let shrink_is_stable () =
  (* Shrinking a passing case is the identity (nothing to chase). *)
  let case =
    {
      Differential.doc_seed = 7;
      fidelity = 0.001;
      physical = Differential.default_physical;
      k = 100;
      speculative = true;
      memory_budget = 1_000_000;
      path = Xpath_parser.parse "/child::site";
    }
  in
  check Alcotest.(list string) "case passes" []
    (List.map (fun m -> m.Differential.detail) (Differential.check_case case));
  check Alcotest.bool "shrink keeps a passing case intact" true (Differential.shrink case = case)

let reproducer_round_trips () =
  (* A reproducer names the tier it replays, and its path re-parses to
     the same path — under the base tier and under each knob-flip tier. *)
  let inputs =
    [
      ("base", "/child::a");
      ("base", "/descendant::b/child::*");
      ("base", "/descendant-or-self::node()/self::c");
      ("batching", "/descendant::b/child::c");
      ("fused", "/child::a/descendant::c");
      ("cache", "/descendant-or-self::node()/child::x");
    ]
  in
  let value_of flag line =
    let rec go = function
      | f :: v :: _ when f = flag -> v
      | _ :: rest -> go rest
      | [] -> Alcotest.failf "no %s in %s" flag line
    in
    go (String.split_on_char ' ' line)
  in
  List.iter
    (fun (tier, s) ->
      let path = Xpath_parser.parse s in
      check Alcotest.string "to_string round-trips through the parser" (Path.to_string path)
        (Path.to_string (Xpath_parser.parse (Path.to_string path)));
      let line =
        Differential.reproducer ~tier
          {
            Differential.doc_seed = 7;
            fidelity = 0.001;
            physical = Differential.default_physical;
            k = 100;
            speculative = true;
            memory_budget = 1_000_000;
            path;
          }
      in
      let named = value_of "--tier" line in
      check Alcotest.string "the reproducer names its tier" tier named;
      check Alcotest.(option string) "the named tier exists" (Some tier)
        (Option.map (fun t -> t.Differential.name) (Differential.find_tier named));
      let quoted = value_of "--path" line in
      check Alcotest.string "the reproducer's path re-parses to the case's" (Path.to_string path)
        (Path.to_string (Xpath_parser.parse (String.sub quoted 1 (String.length quoted - 2)))))
    inputs

(* --- Io_scheduler: removals must prune the order list --------------------- *)

let scheduler ?(pages = 50) policy =
  let d = Gen.small_disk () in
  for _ = 1 to pages do
    ignore (Disk.alloc d)
  done;
  Io_scheduler.create ~policy d

let assert_consistent s =
  check Alcotest.(option string) "scheduler structures agree" None
    (Io_scheduler.consistency_error s);
  check Alcotest.int "order list matches pending set" (Io_scheduler.pending_count s)
    (Io_scheduler.order_length s)

let fifo_ignores_cancelled_submission () =
  (* With C pending throughout: submit A, cancel A, submit B, re-submit
     A. FIFO order is now C, B, A — the cancelled submission of A must
     not count. (The stale-order bug kept A's dead entry, so A's
     original position made it jump the queue ahead of B.) *)
  let s = scheduler Io_scheduler.Fifo in
  Io_scheduler.submit s 30;
  Io_scheduler.submit s 10;
  check Alcotest.bool "cancel pending" true (Io_scheduler.cancel s 10);
  Io_scheduler.submit s 20;
  Io_scheduler.submit s 10;
  assert_consistent s;
  let complete expect label =
    match Io_scheduler.complete_one s with
    | Some (pid, _) -> check Alcotest.int label expect pid
    | None -> Alcotest.fail "nothing pending"
  in
  complete 30 "oldest live submission first";
  complete 20 "B precedes the re-submitted A";
  complete 10 "the re-submission comes last";
  assert_consistent s

let complete_one_prunes_order () =
  List.iter
    (fun policy ->
      let s = scheduler policy in
      List.iter (Io_scheduler.submit s) [ 30; 5; 42 ];
      ignore (Io_scheduler.complete_one s);
      (* Pre-fix, the served page's entry stayed in the order list until
         the pending set emptied. *)
      assert_consistent s;
      ignore (Io_scheduler.complete_one s);
      ignore (Io_scheduler.complete_one s);
      assert_consistent s;
      check Alcotest.int "drained" 0 (Io_scheduler.pending_count s))
    Io_scheduler.all_policies

let cancel_prunes_order () =
  List.iter
    (fun policy ->
      let s = scheduler policy in
      List.iter (Io_scheduler.submit s) [ 1; 2; 3 ];
      check Alcotest.bool "cancel" true (Io_scheduler.cancel s 2);
      assert_consistent s;
      check Alcotest.bool "cancel again is a no-op" false (Io_scheduler.cancel s 2);
      assert_consistent s)
    Io_scheduler.all_policies

(* --- plans under near-minimal buffers ------------------------------------- *)

(* A document big enough to split into many clusters at a tiny payload. *)
let doc () = Gen.wide_tree ~children:40 ()

let build ~capacity ~policy ~replacement tree =
  let d = Gen.small_disk ~page_size:256 () in
  let import = Import.run ~payload:96 d tree in
  let buffer = Buffer_manager.create ~capacity ~policy ~replacement d in
  (Store.attach buffer import, import)

let expected_ids tree (import : Import.result) path =
  Eval_ref.eval tree path
  |> List.map (fun (n : Tree.t) -> import.Import.node_ids.(n.Tree.preorder))
  |> List.sort Node_id.compare

let got_ids (r : Exec.result) =
  List.map (fun (i : Store.info) -> i.Store.id) r.Exec.nodes |> List.sort Node_id.compare

let id_list = Alcotest.testable (Fmt.Dump.list Node_id.pp) (List.equal Node_id.equal)

let validating = { Context.default_config with Context.validate = true }

let plans = [ ("simple", Plan.simple); ("xschedule", Plan.xschedule ()); ("xscan", Plan.xscan ()) ]

(* Every plan, every replacement x I/O-policy combination, two frames:
   correct answers and (via [validate]) no pin leaks, no dangling I/O.
   Pre-fix, XSchedule leaked its current pin or wedged under these
   capacities. *)
let no_pin_leaks_capacity_two () =
  let tree = doc () in
  let path = Xpath_parser.parse "/child::*/child::x" in
  List.iter
    (fun replacement ->
      List.iter
        (fun policy ->
          let store, import = build ~capacity:2 ~policy ~replacement tree in
          check Alcotest.bool "document spans multiple clusters" true (Store.page_count store > 2);
          let expected = expected_ids tree import path in
          List.iter
            (fun (name, plan) ->
              let r = Exec.cold_run ~config:validating store path plan in
              let label =
                Printf.sprintf "%s / %s / %s" name
                  (Buffer_manager.replacement_to_string replacement)
                  (Io_scheduler.policy_to_string policy)
              in
              check id_list label expected (got_ids r);
              check Alcotest.int (label ^ ": no pinned frames") 0
                (Buffer_manager.pinned_count (Store.buffer store)))
            plans)
        Io_scheduler.all_policies)
    Buffer_manager.all_replacements

(* Pre-fix, XSchedule raised Buffer_full on a one-frame buffer: the
   current cluster's pin was never released before acquiring the next
   view, and a refused prefetch was never retried. *)
let xschedule_single_frame () =
  let tree = doc () in
  List.iter
    (fun path_str ->
      let path = Xpath_parser.parse path_str in
      let store, import =
        build ~capacity:1 ~policy:Io_scheduler.Elevator ~replacement:Buffer_manager.Lru tree
      in
      let expected = expected_ids tree import path in
      List.iter
        (fun (name, plan) ->
          let r = Exec.cold_run ~config:validating store path plan in
          check id_list (name ^ " on one frame: " ^ path_str) expected (got_ids r))
        plans)
    [ "/child::*"; "/child::*/child::y"; "/descendant::b" ]

(* The refusal path: with every frame pinned by the current cluster, a
   prefetch must be refused (not raise), and the dispatch loop must
   retry it once the pin is gone. *)
let prefetch_refusal_is_retried () =
  let tree = doc () in
  let store, _ =
    build ~capacity:1 ~policy:Io_scheduler.Fifo ~replacement:Buffer_manager.Fifo tree
  in
  let buffer = Store.buffer store in
  Buffer_manager.reset buffer;
  let first = Store.first_page store in
  let frame = Buffer_manager.fix buffer first in
  (* One frame, and it is pinned: a prefetch of another page must be
     refused rather than evict or raise. *)
  (match Buffer_manager.prefetch buffer (first + 1) with
  | Buffer_manager.Refused -> ()
  | Buffer_manager.Resident | Buffer_manager.Scheduled ->
    Alcotest.fail "prefetch with all frames pinned was not refused");
  Buffer_manager.unfix buffer frame;
  check Alcotest.bool "admission possible once unpinned" true (Buffer_manager.can_admit buffer);
  (* End-to-end: a multi-cluster XSchedule run on the same store still
     terminates with the right answer (its dispatch loop retries the
     refusals it accumulates). *)
  let path = Xpath_parser.parse "/child::*/child::x" in
  let r = Exec.cold_run ~config:validating store path (Plan.xschedule ()) in
  check Alcotest.bool "run terminates with results" true (r.Exec.count > 0)

(* Fallback pressure at one frame: the post-fallback pipeline must
   restart with the simple method instead of wedging on Buffer_full. *)
let fallback_single_frame () =
  let tree = doc () in
  let cfg = { validating with Context.memory_budget = 0 } in
  List.iter
    (fun (name, plan) ->
      let store, import =
        build ~capacity:1 ~policy:Io_scheduler.Cscan ~replacement:Buffer_manager.Clock tree
      in
      let path = Xpath_parser.parse "/descendant::b/child::x" in
      let expected = expected_ids tree import path in
      let r = Exec.cold_run ~config:cfg store path plan in
      check id_list (name ^ " under fallback on one frame") expected (got_ids r);
      check Alcotest.bool (name ^ " fell back") true r.Exec.metrics.Exec.fell_back)
    [ ("xschedule", Plan.xschedule ()); ("xscan", Plan.xscan ()) ]

(* --- views ------------------------------------------------------------------ *)

(* No swizzled handle survives its pin: every view access after release
   must raise. *)
let view_dies_on_release () =
  let store, _ =
    build ~capacity:4 ~policy:Io_scheduler.Elevator ~replacement:Buffer_manager.Lru (doc ())
  in
  let v = Store.view store (Store.first_page store) in
  check Alcotest.bool "view live while pinned" true (Store.view_valid v);
  ignore (Store.get v 0);
  Store.release store v;
  check Alcotest.bool "view dead after release" false (Store.view_valid v);
  let raises f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check Alcotest.bool "get after release raises" true (raises (fun () -> ignore (Store.get v 0)));
  check Alcotest.bool "next_up after release raises" true
    (raises (fun () -> ignore (Store.next_up v 0)));
  check Alcotest.bool "double release raises" true (raises (fun () -> Store.release store v))

(* XSchedule's direct-serve pick (queued items whose cluster has no
   pending I/O) is the cost-weighted rule: the cluster with the most
   queued items per unit of access cost, the smallest page id only
   breaking ties. So the physical read order — the I/O trace — is a pure
   function of the inputs. Pre-fix the pick came from hash-table
   iteration order. *)
let xschedule_trace_is_stable () =
  let tree = doc () in
  let run_trace store path config =
    let disk = Buffer_manager.disk (Store.buffer store) in
    Disk.set_trace disk true;
    let r = Exec.cold_run ~config store path (Plan.xschedule ()) in
    (got_ids r, Disk.trace disk)
  in
  let path = Xpath_parser.parse "/child::*/child::x" in
  let config = { validating with Context.k = 2 } in
  let store, import =
    build ~capacity:2 ~policy:Io_scheduler.Elevator ~replacement:Buffer_manager.Lru tree
  in
  let ids1, trace1 = run_trace store path config in
  let ids2, trace2 = run_trace store path config in
  check id_list "answers match the reference" (expected_ids tree import path) ids1;
  check id_list "repeated cold runs agree" ids1 ids2;
  check Alcotest.bool "trace is non-trivial" true (List.length trace1 > 2);
  check Alcotest.(list int) "same store: identical I/O trace" trace1 trace2;
  (* An independently built identical store must replay the same trace:
     nothing about the pick depends on table internals or allocation
     history. *)
  let store', _ =
    build ~capacity:2 ~policy:Io_scheduler.Elevator ~replacement:Buffer_manager.Lru tree
  in
  let _, trace3 = run_trace store' path config in
  check Alcotest.(list int) "fresh store: identical I/O trace" trace1 trace3

(* --- cost-sensitive batching ---------------------------------------------- *)

(* The batching differential tier: every plan, coalescing / cost-serve /
   scan windows fully off then fully on, identical answers under the
   full invariant suite. *)
let batching_differential_sample () =
  check Alcotest.(list string) "knobs-off and knobs-on runs agree" [] (sample_tier "batching")

(* The workload differential tier: every plan of each case run serially
   cold, then all at once through the concurrent engine — each query's
   answer must be identical either way. *)
let workload_differential_sample () =
  check Alcotest.(list string) "concurrent and serial runs agree" [] (sample_tier "workload")

(* The writers differential tier: every plan of each case runs
   concurrently with one or two writer clients committing sampled
   inserts and deletes — each reader's answer must equal a serial
   replay of the commit schedule up to the reader's finish point on an
   identically-imported twin, and the final documents must match. *)
let writers_differential_sample () =
  check Alcotest.(list string) "concurrent readers equal their serial replay" []
    (sample_tier "writers")

(* The sharded tenancy tier: a small multi-tenant topology derived from
   each case (2-4 tenants over 1-3 shards), every (tenant, plan) pair
   run at once through the two-level scheduler — with the fairness
   gate, 2Q eviction and the result-cache front door each on in half
   the cases — and each job's answer compared against a serial cold run
   on the same tenant store. *)
let shards_differential_sample () =
  check Alcotest.(list string) "sharded and per-tenant serial runs agree" [] (sample_tier "shards")

(* --- the structural index ------------------------------------------------- *)

(* The index differential tier: reference evaluator, XSchedule and index
   plans (covering and forced partial resolutions) must agree on every
   sampled case. *)
let index_differential_sample () =
  check Alcotest.(list string) "index plans agree with the reference evaluator" []
    (sample_tier "index")

(* Border-seeded residual evaluation: on a store split into many tiny
   clusters, an index plan forced to stop resolution mid-path must seed
   partial instances at entry clusters, navigate the residual suffix
   across borders (continuations served through XIndex's push), and still
   produce the reference answer — while actually touching the residual
   machinery. *)
let index_residual_borders () =
  let tree = doc () in
  List.iter
    (fun path_str ->
      let path = Xpath_parser.parse path_str in
      let store, import =
        build ~capacity:4 ~policy:Io_scheduler.Elevator ~replacement:Buffer_manager.Lru tree
      in
      check Alcotest.bool "document spans multiple clusters" true (Store.page_count store > 2);
      let expected = expected_ids tree import path in
      List.iter
        (fun resolve ->
          let r =
            Exec.cold_run ~config:validating store path (Plan.xindex ~resolve ())
          in
          let label = Printf.sprintf "%s at resolve<=%d" path_str resolve in
          check id_list label expected (got_ids r);
          check Alcotest.bool (label ^ ": residual machinery engaged") true
            (r.Exec.metrics.Exec.index_clusters > 0))
        [ 0; 1 ])
    [ "/child::*/child::x"; "/child::*/child::y"; "/descendant::b" ]

(* The covering regime reads nothing: a pure child chain on the same
   multi-cluster store is answered entirely from the partition. *)
let index_covering_reads_no_pages () =
  let tree = doc () in
  let store, import =
    build ~capacity:4 ~policy:Io_scheduler.Elevator ~replacement:Buffer_manager.Lru tree
  in
  let path = Xpath_parser.parse "/child::*/child::x" in
  let expected = expected_ids tree import path in
  let r = Exec.cold_run ~config:validating store path (Plan.xindex ()) in
  check id_list "covering answers match the reference" expected (got_ids r);
  check Alcotest.int "covering entries = results" (List.length expected)
    r.Exec.metrics.Exec.index_entries;
  check Alcotest.int "no clusters pinned by the index" 0 r.Exec.metrics.Exec.index_clusters;
  check Alcotest.int "no pages read at all" 0 r.Exec.metrics.Exec.page_reads

(* --- the result cache ----------------------------------------------------- *)

(* The cache differential tier: every plan run cache-off, cache-on miss
   and cache-on hit, plus the case's plans deduped through the workload
   front door — identical answers throughout, and the miss run must not
   perturb a single execution counter. *)
let cache_differential_sample () =
  check Alcotest.(list string) "cache-on and cache-off runs agree" [] (sample_tier "cache")

let caching = { validating with Context.result_cache = true }

(* Freshness: an insert bumps the store's mutation stamp, which must
   stale the cached result — the next run recomputes (and sees the new
   node), and only then does the key serve hits again. *)
let insert_stales_cached_result () =
  let tree = doc () in
  let store, import =
    build ~capacity:8 ~policy:Io_scheduler.Elevator ~replacement:Buffer_manager.Lru tree
  in
  let path = Xpath_parser.parse "/child::*/child::x" in
  Result_cache.clear ();
  Result_cache.reset_stats ();
  let r1 = Exec.cold_run ~config:caching store path (Plan.xschedule ()) in
  check id_list "first run matches the reference" (expected_ids tree import path) (got_ids r1);
  check Alcotest.int "first run is a miss" 1 r1.Exec.metrics.Exec.cache_misses;
  let r2 = Exec.cold_run ~config:caching store path (Plan.xschedule ()) in
  check Alcotest.int "second run is a hit" 1 r2.Exec.metrics.Exec.cache_hits;
  check Alcotest.int "the hit reads no pages" 0 r2.Exec.metrics.Exec.page_reads;
  check id_list "the hit serves the cached answer" (got_ids r1) (got_ids r2);
  let stamp = Store.mutation_stamp store in
  let parent =
    (List.hd (Exec.cold_run ~config:validating store (Xpath_parser.parse "/child::*") Plan.simple)
       .Exec.nodes)
      .Store.id
  in
  let fresh = Update.insert_element store ~parent (Tag.of_string "x") in
  check Alcotest.bool "the insert advanced the mutation stamp" true
    (Store.mutation_stamp store > stamp);
  let r3 = Exec.cold_run ~config:caching store path (Plan.xschedule ()) in
  check Alcotest.int "post-insert run is not served the stale answer" 0
    r3.Exec.metrics.Exec.cache_hits;
  check Alcotest.int "post-insert run recomputes" 1 r3.Exec.metrics.Exec.cache_misses;
  check Alcotest.bool "the recomputation sees the inserted node" true
    (List.exists (fun (i : Store.info) -> Node_id.equal i.Store.id fresh) r3.Exec.nodes);
  check Alcotest.int "exactly one stale entry was dropped" 1 (Result_cache.stats ()).Result_cache.stales;
  let r4 = Exec.cold_run ~config:caching store path (Plan.xschedule ()) in
  check Alcotest.int "the fresh stamp serves hits again" 1 r4.Exec.metrics.Exec.cache_hits;
  check id_list "the new hit equals the recomputed answer" (got_ids r3) (got_ids r4);
  Result_cache.clear ()

(* Bounded capacity, LRU order: at capacity 2, touching an entry saves
   it and the least-recently-used one is evicted instead. *)
let cache_evicts_least_recently_used () =
  let tree = doc () in
  let store, _ =
    build ~capacity:4 ~policy:Io_scheduler.Elevator ~replacement:Buffer_manager.Lru tree
  in
  let saved = Result_cache.capacity () in
  Result_cache.clear ();
  Result_cache.reset_stats ();
  Result_cache.set_capacity 2;
  let resident key =
    match Result_cache.find store key with
    | Some _ -> true
    | None -> false
  in
  check Alcotest.int "no eviction below capacity" 0 (Result_cache.add store "/a" ~count:0 []);
  check Alcotest.int "no eviction at capacity" 0 (Result_cache.add store "/b" ~count:0 []);
  check Alcotest.bool "touch /a to make it most recent" true (resident "/a");
  check Alcotest.int "inserting over capacity evicts one entry" 1
    (Result_cache.add store "/c" ~count:0 []);
  check Alcotest.int "size stays at capacity" 2 (Result_cache.size ());
  check Alcotest.bool "the touched entry survives" true (resident "/a");
  check Alcotest.bool "the least-recently-used entry was evicted" false (resident "/b");
  check Alcotest.bool "the new entry is resident" true (resident "/c");
  Result_cache.set_capacity saved;
  Result_cache.clear ();
  Result_cache.reset_stats ()

(* set_capacity must clamp rather than raise: zero (and anything below)
   means disabled — adds store nothing, finds never serve. *)
let cache_capacity_clamps_to_zero () =
  let tree = doc () in
  let store, _ =
    build ~capacity:4 ~policy:Io_scheduler.Elevator ~replacement:Buffer_manager.Lru tree
  in
  let saved = Result_cache.capacity () in
  Result_cache.clear ();
  Result_cache.reset_stats ();
  Result_cache.set_capacity (-3);
  check Alcotest.int "negative capacity clamps to zero" 0 (Result_cache.capacity ());
  check Alcotest.int "a disabled cache evicts nothing on add" 0
    (Result_cache.add store "/a" ~count:0 []);
  check Alcotest.int "a disabled cache stores nothing" 0 (Result_cache.size ());
  check Alcotest.bool "and never serves" true
    (match Result_cache.find store "/a" with None -> true | Some _ -> false);
  Result_cache.set_capacity 0;
  check Alcotest.int "zero is accepted as disabled" 0 (Result_cache.capacity ());
  (* Shrinking a populated cache trims immediately. *)
  Result_cache.set_capacity 2;
  ignore (Result_cache.add store "/a" ~count:0 []);
  ignore (Result_cache.add store "/b" ~count:0 []);
  Result_cache.set_capacity 0;
  check Alcotest.int "shrinking to zero empties the cache" 0 (Result_cache.size ());
  Result_cache.set_capacity saved;
  Result_cache.clear ();
  Result_cache.reset_stats ()

(* Uid aliasing: uids are a bare per-process counter, so after a counter
   reset (a fresh process over a warm external cache — simulated here
   with [Store.reset_uids]) a new store can receive a uid some live
   entry was installed under. The content digest folded into the key
   must turn the reuse into a clean miss — never another document's
   answer. *)
let cache_misses_on_uid_reuse () =
  Result_cache.clear ();
  Result_cache.reset_stats ();
  Store.reset_uids ();
  let tree_a = doc () in
  let store_a, import_a =
    build ~capacity:8 ~policy:Io_scheduler.Elevator ~replacement:Buffer_manager.Lru tree_a
  in
  let path = Xpath_parser.parse "/child::*/child::x" in
  let ra = Exec.cold_run ~config:caching store_a path (Plan.xschedule ()) in
  check id_list "store A's answer matches the reference" (expected_ids tree_a import_a path)
    (got_ids ra);
  check Alcotest.int "store A's answer is installed" 1 (Result_cache.size ());
  Store.reset_uids ();
  let tree_b = Gen.deep_tree ~depth:6 () in
  let store_b, import_b =
    build ~capacity:8 ~policy:Io_scheduler.Elevator ~replacement:Buffer_manager.Lru tree_b
  in
  check Alcotest.int "store B reuses store A's uid" (Store.uid store_a) (Store.uid store_b);
  check Alcotest.bool "their content digests differ" true
    (Store.identity store_a <> Store.identity store_b);
  check Alcotest.bool "the aliased lookup is a clean miss" true
    (match Result_cache.find store_b (Path.to_string path) with None -> true | Some _ -> false);
  let rb = Exec.cold_run ~config:caching store_b path (Plan.xschedule ()) in
  check Alcotest.int "the aliased run is never served A's answer" 0
    rb.Exec.metrics.Exec.cache_hits;
  check id_list "store B computes its own answer" (expected_ids tree_b import_b path) (got_ids rb);
  Result_cache.clear ();
  Result_cache.reset_stats ()

(* --- the fused chain automaton -------------------------------------------- *)

(* The fused differential tier: every fused-capable plan with the
   automaton on and off — identical answers, identical I/O traces,
   identical scheduling counters. *)
let fused_differential_sample () =
  check Alcotest.(list string) "fused and unfused runs agree" [] (sample_tier "fused")

(* The fused knob must be invisible in physical behaviour: with it off
   the XStep chain replays its historical I/O trace (a pure function of
   the inputs, untouched by the automaton), and with it on the fused
   operator replays the very same trace while actually running. *)
let fused_off_reproduces_chain_trace () =
  let tree = doc () in
  let path = Xpath_parser.parse "/child::*/child::x" in
  let run_trace fused =
    let store, import =
      build ~capacity:2 ~policy:Io_scheduler.Elevator ~replacement:Buffer_manager.Lru tree
    in
    let disk = Buffer_manager.disk (Store.buffer store) in
    Disk.set_trace disk true;
    let r =
      Exec.cold_run ~config:{ validating with Context.fused } store path (Plan.xscan ())
    in
    check id_list "answers match the reference" (expected_ids tree import path) (got_ids r);
    (r.Exec.metrics, Disk.trace disk)
  in
  let m_off, trace_off = run_trace false in
  let _, trace_off' = run_trace false in
  let m_on, trace_on = run_trace true in
  check Alcotest.int "fused-off: zero transitions" 0 m_off.Exec.fused_transitions;
  check Alcotest.int "fused-off: zero states" 0 m_off.Exec.fused_states;
  check Alcotest.bool "fused-on engages the automaton" true (m_on.Exec.fused_transitions > 0);
  check Alcotest.bool "trace is non-trivial" true (List.length trace_off > 2);
  check Alcotest.(list int) "fused-off trace is reproducible" trace_off trace_off';
  check Alcotest.(list int) "fused-on replays the chain trace exactly" trace_off trace_on

let knobs_off =
  {
    validating with
    Context.coalesce_window = 0;
    Context.scan_threshold = 0.0;
  }

(* With every knob off, the machinery must be invisible: zero batch and
   window counters, and an I/O trace that is a pure function of the
   inputs (the historical single-page regime). *)
let knobs_off_is_the_historical_regime () =
  let tree = doc () in
  let path = Xpath_parser.parse "/child::*/child::x" in
  let run_trace () =
    let store, import =
      build ~capacity:2 ~policy:Io_scheduler.Elevator ~replacement:Buffer_manager.Lru tree
    in
    let disk = Buffer_manager.disk (Store.buffer store) in
    Disk.set_trace disk true;
    let r = Exec.cold_run ~config:knobs_off store path (Plan.xschedule ()) in
    check id_list "answers match the reference" (expected_ids tree import path) (got_ids r);
    let m = r.Exec.metrics in
    check Alcotest.int "no batched reads" 0 m.Exec.batched_reads;
    check Alcotest.int "no batch pages" 0 m.Exec.batch_pages;
    check Alcotest.int "no coalesce runs" 0 m.Exec.coalesce_runs;
    check Alcotest.int "no scan windows" 0 m.Exec.scan_windows;
    check Alcotest.int "no scan window pages" 0 m.Exec.scan_window_pages;
    Disk.trace disk
  in
  let trace1 = run_trace () in
  let trace2 = run_trace () in
  check Alcotest.bool "trace is non-trivial" true (List.length trace1 > 2);
  check Alcotest.(list int) "fresh store: identical I/O trace" trace1 trace2

(* Coalescing must actually fire on a multi-cluster run: with the window
   open (and scan windows held off to isolate the path), pending pages
   are delivered through vectored reads. *)
let coalescing_batches_async_reads () =
  let tree = doc () in
  let cfg = { validating with Context.coalesce_window = 16; Context.scan_threshold = 0.0 } in
  let store, import =
    build ~capacity:8 ~policy:Io_scheduler.Elevator ~replacement:Buffer_manager.Lru tree
  in
  let path = Xpath_parser.parse "/child::*/child::x" in
  let r = Exec.cold_run ~config:cfg store path (Plan.xschedule ()) in
  let m = r.Exec.metrics in
  check id_list "answers match the reference" (expected_ids tree import path) (got_ids r);
  check Alcotest.bool "some reads were batched" true (m.Exec.batched_reads > 0);
  check Alcotest.bool "some batches carried several pages" true (m.Exec.coalesce_runs > 0);
  check Alcotest.bool "batch pages cover batched reads" true
    (m.Exec.batch_pages >= m.Exec.batched_reads)

(* Adaptive scan windows must fire when the pending set is dense, and
   sweep pages without disturbing the answer. *)
let scan_windows_fire_when_dense () =
  let tree = doc () in
  let cfg =
    { validating with Context.coalesce_window = 0; Context.scan_threshold = 0.25 }
  in
  let store, import =
    build ~capacity:8 ~policy:Io_scheduler.Elevator ~replacement:Buffer_manager.Lru tree
  in
  let path = Xpath_parser.parse "/child::*/child::x" in
  let r = Exec.cold_run ~config:cfg store path (Plan.xschedule ()) in
  let m = r.Exec.metrics in
  check id_list "answers match the reference" (expected_ids tree import path) (got_ids r);
  check Alcotest.bool "a scan window opened" true (m.Exec.scan_windows > 0);
  check Alcotest.bool "windows swept pages" true (m.Exec.scan_window_pages > 0)

let suite =
  [
    ( "differential",
      [
        Alcotest.test_case "200 sampled cases agree with the reference evaluator" `Slow
          differential_sample;
        Alcotest.test_case "shrinking a passing case is the identity" `Quick shrink_is_stable;
        Alcotest.test_case "reproducer paths round-trip through the parser" `Quick
          reproducer_round_trips;
      ] );
    ( "swizzling",
      [
        Alcotest.test_case "no swizzled handle survives an unpin" `Quick view_dies_on_release;
        Alcotest.test_case "xschedule direct-serve pick yields a stable I/O trace" `Quick
          xschedule_trace_is_stable;
      ] );
    ( "batching",
      [
        Alcotest.test_case "200 sampled cases: batching knobs on/off agree" `Slow
          batching_differential_sample;
        Alcotest.test_case "knobs off reproduces the single-page regime" `Quick
          knobs_off_is_the_historical_regime;
        Alcotest.test_case "coalescing batches async reads" `Quick coalescing_batches_async_reads;
        Alcotest.test_case "scan windows open under dense pending sets" `Quick
          scan_windows_fire_when_dense;
      ] );
    ( "workload differential",
      [
        Alcotest.test_case "200 sampled cases: concurrent equals serial per query" `Slow
          workload_differential_sample;
      ] );
    ( "writers differential",
      [
        Alcotest.test_case "200 sampled cases: readers equal their serial replay" `Slow
          writers_differential_sample;
      ] );
    ( "shards differential",
      [
        Alcotest.test_case "200 sampled cases: sharded tenants equal their serial runs" `Slow
          shards_differential_sample;
      ] );
    ( "index differential",
      [
        Alcotest.test_case "200 sampled cases: index plans equal reference and xschedule" `Slow
          index_differential_sample;
        Alcotest.test_case "border-seeded residuals reproduce the reference answer" `Quick
          index_residual_borders;
        Alcotest.test_case "covering index reads no pages" `Quick index_covering_reads_no_pages;
      ] );
    ( "result cache",
      [
        Alcotest.test_case "200 sampled cases: cache on/off is observationally equal" `Slow
          cache_differential_sample;
        Alcotest.test_case "an insert stales the cached result" `Quick insert_stales_cached_result;
        Alcotest.test_case "eviction is bounded and least-recently-used" `Quick
          cache_evicts_least_recently_used;
        Alcotest.test_case "set_capacity clamps zero and below to disabled" `Quick
          cache_capacity_clamps_to_zero;
        Alcotest.test_case "a reused uid can never serve another document's answer" `Quick
          cache_misses_on_uid_reuse;
      ] );
    ( "fused differential",
      [
        Alcotest.test_case "200 sampled cases: fused on/off is observationally equal" `Slow
          fused_differential_sample;
        Alcotest.test_case "fused off reproduces the chain's exact I/O trace" `Quick
          fused_off_reproduces_chain_trace;
      ] );
    ( "scheduler regressions",
      [
        Alcotest.test_case "fifo ignores cancelled submissions" `Quick
          fifo_ignores_cancelled_submission;
        Alcotest.test_case "complete_one prunes the order list" `Quick complete_one_prunes_order;
        Alcotest.test_case "cancel prunes the order list" `Quick cancel_prunes_order;
      ] );
    ( "buffer regressions",
      [
        Alcotest.test_case "no pin leaks: plans x replacements x policies at 2 frames" `Quick
          no_pin_leaks_capacity_two;
        Alcotest.test_case "xschedule completes on a single frame" `Quick xschedule_single_frame;
        Alcotest.test_case "refused prefetches are retried" `Quick prefetch_refusal_is_retried;
        Alcotest.test_case "fallback on a single frame restarts simple" `Quick
          fallback_single_frame;
      ] );
  ]
