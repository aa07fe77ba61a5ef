(* The concurrent workload engine: admission control, round-robin with
   cost credits, cross-query coalescing, per-query timeout/abort, and
   fairness accounting — all checked against serial runs of the same
   queries. *)

module Disk = Xnav_storage.Disk
module Io_scheduler = Xnav_storage.Io_scheduler
module Buffer_manager = Xnav_storage.Buffer_manager
module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Update = Xnav_store.Update
module Tree = Xnav_xml.Tree
module Tag = Xnav_xml.Tag
module Xpath_parser = Xnav_xpath.Xpath_parser
module Plan = Xnav_core.Plan
module Exec = Xnav_core.Exec
module Context = Xnav_core.Context
module Result_cache = Xnav_core.Result_cache
module Workload = Xnav_workload.Workload

let check = Alcotest.check

let id_list = Alcotest.testable (Fmt.Dump.list Node_id.pp) (List.equal Node_id.equal)

let doc () = Gen.wide_tree ~children:40 ()

let build ~capacity tree =
  let config = { Disk.default_config with Disk.page_size = 256 } in
  let disk = Disk.create ~config () in
  let import = Import.run ~payload:96 disk tree in
  let buffer = Buffer_manager.create ~capacity ~policy:Io_scheduler.Elevator disk in
  Store.attach buffer import

let validating = { Context.default_config with Context.validate = true }

let spec ?timeout ?(ops = []) label path plan =
  { Workload.label; path = Xpath_parser.parse path; plan; timeout; ops }

let mix () =
  [
    spec "q-root" "/child::*" Plan.simple;
    spec "q-x" "/child::*/child::x" (Plan.xschedule ());
    spec "q-y" "/descendant::y" (Plan.xscan ());
    spec "q-a" "/child::a" (Plan.xschedule ());
  ]

let ids_of nodes = List.map (fun (i : Store.info) -> i.Store.id) nodes |> List.sort Node_id.compare

let serial_ids store config s =
  ids_of (Exec.cold_run ~config store s.Workload.path s.Workload.plan).Exec.nodes

let job_by_label r label =
  List.find (fun (j : Workload.job) -> j.Workload.job_label = label) r.Workload.jobs

(* Every query run concurrently must produce exactly its serial answer,
   and the engine must end with the invariant layer clean. *)
let concurrent_equals_serial () =
  let store = build ~capacity:16 (doc ()) in
  let specs = mix () in
  let expected = List.map (fun s -> (s.Workload.label, serial_ids store validating s)) specs in
  let r = Workload.run ~config:validating ~cold:true store specs in
  check Alcotest.int "one job per query" (List.length specs) (List.length r.Workload.jobs);
  check Alcotest.(list string) "no invariant violations" [] r.Workload.violations;
  List.iter
    (fun (label, want) ->
      let j = job_by_label r label in
      check Alcotest.string "completed"
        (Workload.status_to_string Workload.Completed)
        (Workload.status_to_string j.Workload.status);
      check id_list label want (ids_of j.Workload.nodes))
    expected;
  check Alcotest.int "no pins leaked" 0 (Buffer_manager.pinned_count (Store.buffer store))

(* Admission generalises the capacity-1 rule: a pool too small for two
   queries' worst-case pin demand serialises them (but always admits a
   lone query), while a large pool runs the whole mix at once. *)
let admission_scales_with_capacity () =
  let tree = doc () in
  let small = build ~capacity:2 tree in
  let r_small = Workload.run ~config:validating ~cold:true small (mix ()) in
  check Alcotest.int "capacity 2 serialises" 1 r_small.Workload.max_concurrent;
  check Alcotest.(list string) "small pool still clean" [] r_small.Workload.violations;
  let roomy = build ~capacity:64 tree in
  let r_roomy = Workload.run ~config:validating ~cold:true roomy (mix ()) in
  check Alcotest.int "capacity 64 admits the whole mix" 4 r_roomy.Workload.max_concurrent;
  (* Serialised admission makes later queries wait for the pool: the
     wait is visible as pin-wait time on the simulated clock. *)
  let total_wait = List.fold_left (fun a j -> a +. j.Workload.pin_wait) 0.0 r_small.Workload.jobs in
  check Alcotest.bool "serialised queries waited for admission" true (total_wait > 0.0)

(* A timeout aborts the query at its deadline: the job reports Timed_out
   with no results, unwinds through abort_async without poisoning the
   pool, and the other queries still answer correctly. *)
let timeout_unwinds_cleanly () =
  let store = build ~capacity:16 (doc ()) in
  let doomed = spec ~timeout:0.0 "q-doomed" "/descendant::y" (Plan.xschedule ()) in
  let survivor = spec "q-x" "/child::*/child::x" (Plan.xschedule ()) in
  let expected = serial_ids store validating survivor in
  let r = Workload.run ~config:validating ~cold:true store [ doomed; survivor ] in
  let j_doomed = job_by_label r "q-doomed" in
  check Alcotest.string "doomed job timed out"
    (Workload.status_to_string Workload.Timed_out)
    (Workload.status_to_string j_doomed.Workload.status);
  check Alcotest.int "timed-out job has no results" 0 j_doomed.Workload.count;
  let j_survivor = job_by_label r "q-x" in
  check id_list "survivor answers correctly" expected (ids_of j_survivor.Workload.nodes);
  check Alcotest.(list string) "pool unwound cleanly" [] r.Workload.violations;
  check Alcotest.int "no pins leaked" 0 (Buffer_manager.pinned_count (Store.buffer store))

(* Fairness accounting: each turn credits the chosen query and debits
   every other runnable one, so under real concurrency every completed
   query was served at least once and somebody was made to wait. *)
let fairness_counters_advance () =
  let store = build ~capacity:16 (doc ()) in
  let r = Workload.run ~config:validating ~cold:true store (mix ()) in
  check Alcotest.bool "ran concurrently" true (r.Workload.max_concurrent > 1);
  List.iter
    (fun (j : Workload.job) ->
      check Alcotest.bool
        (Printf.sprintf "%s was served" j.Workload.job_label)
        true (j.Workload.served_ticks > 0))
    r.Workload.jobs;
  let starved = List.fold_left (fun a j -> a + j.Workload.starved_ticks) 0 r.Workload.jobs in
  check Alcotest.bool "contention was recorded" true (starved > 0);
  check Alcotest.bool "turns were taken" true (r.Workload.turns > 0)

(* Closed-loop clients: each client submits its next job as soon as the
   previous finishes, so every queued job runs exactly once. *)
let closed_loop_clients_drain () =
  let store = build ~capacity:16 (doc ()) in
  let a = spec "a" "/child::*/child::x" (Plan.xschedule ()) in
  let b = spec "b" "/descendant::y" (Plan.xscan ()) in
  let want_a = serial_ids store validating a in
  let want_b = serial_ids store validating b in
  let r = Workload.run_clients ~config:validating ~cold:true store [| [ a; b ]; [ b; a ] |] in
  check Alcotest.int "all four jobs ran" 4 (List.length r.Workload.jobs);
  List.iter
    (fun (j : Workload.job) ->
      let want = if j.Workload.job_label = "a" then want_a else want_b in
      check id_list j.Workload.job_label want (ids_of j.Workload.nodes))
    r.Workload.jobs;
  check Alcotest.(list string) "clean end" [] r.Workload.violations

(* --- writers: online updates under concurrent reads ----------------------- *)

let replay twin ops =
  List.iter
    (fun op ->
      match op with
      | Workload.Insert_child { parent; tag } -> ignore (Update.insert_element twin ~parent tag)
      | Workload.Delete_subtree victim -> ignore (Update.delete_subtree twin victim))
    ops

(* A writer client committing inserts and deletes against the shared
   store, interleaved with readers: every op commits exactly once, the
   commit log replayed serially on an identically-imported twin
   reproduces the final document, and the run ends clean. *)
let writer_mix_commits_and_replays () =
  let store, import = Gen.import_store ~payload:96 ~page_size:256 ~capacity:16 (doc ()) in
  let twin, _ = Gen.import_store ~payload:96 ~page_size:256 ~capacity:16 (doc ()) in
  let ids = import.Import.node_ids in
  let ops =
    [
      Workload.Insert_child { parent = ids.(0); tag = Tag.of_string "w" };
      Workload.Delete_subtree ids.(4);
      Workload.Insert_child { parent = ids.(0); tag = Tag.of_string "w" };
    ]
  in
  let writer = spec ~ops "w" "/child::*" Plan.simple in
  let readers =
    [
      spec "q-x" "/child::*/child::x" (Plan.xschedule ());
      spec "q-y" "/descendant::y" (Plan.xscan ());
    ]
  in
  let r = Workload.run_clients ~config:validating ~cold:true store [| readers; [ writer ] |] in
  check Alcotest.(list string) "no invariant violations" [] r.Workload.violations;
  check Alcotest.int "every op committed" (List.length ops) r.Workload.writer_commits;
  check Alcotest.int "the commit log records every commit" r.Workload.writer_commits
    (List.length r.Workload.commit_log);
  let wj = job_by_label r "w" in
  check Alcotest.string "writer completed"
    (Workload.status_to_string Workload.Completed)
    (Workload.status_to_string wj.Workload.status);
  check Alcotest.int "a writer reports no nodes" 0 wj.Workload.count;
  check Alcotest.int "commits are attributed to the writer job" (List.length ops)
    wj.Workload.writer_commits;
  check Alcotest.bool "a writer is never a cache hit" false wj.Workload.cache_hit;
  replay twin r.Workload.commit_log;
  check Alcotest.bool "replaying the commit log reproduces the document" true
    (Tree.equal (Gen.reconstruct store) (Gen.reconstruct twin));
  check Alcotest.int "no pins leaked" 0 (Buffer_manager.pinned_count (Store.buffer store))

(* A commit into a cluster a running reader has already observed must
   force the reader to restart under a fresh snapshot: the reader
   reports at least one retry and its final answer is the post-commit
   serial answer (it sees the inserted node). *)
let snapshot_conflict_restarts_reader () =
  let store, import = Gen.import_store ~payload:96 ~page_size:256 ~capacity:16 (doc ()) in
  (* Insert under the document's first child: the splice writes the
     first cluster, which the descendant scan observes on its very first
     turns — appending under the root would only write the last
     sibling's cluster, at the far end the reader hasn't reached. *)
  let first_child = import.Import.node_ids.(1) in
  let writer =
    spec ~ops:[ Workload.Insert_child { parent = first_child; tag = Tag.of_string "y" } ] "w"
      "/child::*" Plan.simple
  in
  (* Simple navigation yields on every random I/O, so the reader stays in
     flight across many turns while the writer commits. *)
  let reader = spec "q-y" "/descendant::y" Plan.simple in
  let r = Workload.run_clients ~config:validating ~cold:true store [| [ reader ]; [ writer ] |] in
  check Alcotest.(list string) "no invariant violations" [] r.Workload.violations;
  check Alcotest.int "writer committed" 1 r.Workload.writer_commits;
  let rj = job_by_label r "q-y" in
  check Alcotest.bool "the commit into an observed cluster forced a restart" true
    (rj.Workload.snapshot_retries >= 1);
  check Alcotest.int "the restarted reader finished after the commit" 1
    rj.Workload.finish_commit;
  let expected = serial_ids store validating reader in
  check id_list "reader answer equals the post-commit serial answer" expected
    (ids_of rj.Workload.nodes)

(* Cluster-granular invalidation, end to end through the front door: a
   commit whose write set is disjoint from a cached statement's
   footprint leaves the entry serving hits; a commit into the footprint
   drops exactly that entry and forces one recompute. *)
let untouched_paths_keep_hitting_across_commits () =
  (* The chain depth is modest: ordpaths grow with depth and each record
     must still fit the per-cluster payload budget. *)
  let rec chain k = if k = 0 then Tree.elt "c" [] else Tree.elt "b" [ chain (k - 1) ] in
  let tree = Tree.elt "r" [ Tree.elt "a" [ Tree.elt "x" [] ]; chain 8 ] in
  let store, _ = Gen.import_store ~payload:150 ~capacity:16 tree in
  let caching = { validating with Context.result_cache = true } in
  Result_cache.clear ();
  Result_cache.reset_stats ();
  let q = spec "q" "/child::a/child::x" Plan.simple in
  let run_q () = Workload.run ~config:caching ~cold:true store [ q ] in
  let node_at path =
    (List.hd
       (Exec.cold_run ~config:validating store (Xpath_parser.parse path) Plan.simple).Exec.nodes)
      .Store.id
  in
  let writer label parent =
    spec ~ops:[ Workload.Insert_child { parent; tag = Tag.of_string "z" } ] label "/child::a"
      Plan.simple
  in
  let r1 = run_q () in
  let j1 = job_by_label r1 "q" in
  check Alcotest.bool "first run misses" false j1.Workload.cache_hit;
  check Alcotest.int "first run installs its answer" 1 r1.Workload.cache_misses;
  (* Commit into the deep tail of the b-chain — clusters the query never
     touched. *)
  let r2 = Workload.run ~config:caching ~cold:true store [ writer "w-far" (node_at "/descendant::c") ] in
  check Alcotest.int "far writer committed" 1 r2.Workload.writer_commits;
  check Alcotest.int "a disjoint write set stales nothing" 0 r2.Workload.cluster_stales;
  let r3 = run_q () in
  let j3 = job_by_label r3 "q" in
  check Alcotest.bool "untouched-path repeat still hits the cache" true j3.Workload.cache_hit;
  check id_list "the hit serves the original answer" (ids_of j1.Workload.nodes)
    (ids_of j3.Workload.nodes);
  (* Commit into the query's own footprint: insert under [a]. *)
  let r4 = Workload.run ~config:caching ~cold:true store [ writer "w-near" (node_at "/child::a") ] in
  check Alcotest.int "near writer committed" 1 r4.Workload.writer_commits;
  check Alcotest.int "an intersecting write set stales the entry" 1 r4.Workload.cluster_stales;
  let r5 = run_q () in
  let j5 = job_by_label r5 "q" in
  check Alcotest.bool "the staled entry forces a recompute" false j5.Workload.cache_hit;
  check id_list "the recomputed answer is unchanged" (ids_of j1.Workload.nodes)
    (ids_of j5.Workload.nodes);
  Result_cache.clear ();
  Result_cache.reset_stats ()

(* --- sharded tenancy ------------------------------------------------------- *)

module Shard = Xnav_workload.Shard

let tenant_docs () =
  [ ("alpha", doc ()); ("beta", Gen.deep_tree ~depth:4 ()); ("gamma", Gen.sample_doc ()) ]

let topology ?(shards = 2) () =
  Shard.create ~capacity:16 ~page_size:256 ~payload:96 ~shards (tenant_docs ())

(* Placement is a pure function of the tenant name: stable across calls,
   in range, and what the topology actually used. *)
let stable_placement_is_deterministic () =
  let t = topology () in
  List.iter
    (fun (name, _) ->
      let s = Shard.stable_shard ~shards:2 name in
      check Alcotest.bool (name ^ " in range") true (s >= 0 && s < 2);
      check Alcotest.int (name ^ " is stable") s (Shard.stable_shard ~shards:2 name);
      check Alcotest.int (name ^ " topology agrees") s (Shard.shard_of t name))
    (tenant_docs ());
  check Alcotest.int "one shard maps everyone to it" 0 (Shard.stable_shard ~shards:1 "anything");
  (match Shard.stable_shard ~shards:0 "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument")

(* The sharded engine is read-only and knows its tenants: writer specs
   and unknown tenants are rejected up front, before any state moves. *)
let shard_rejects_writers_and_strangers () =
  let t = topology () in
  let root =
    (List.hd
       (Exec.cold_run ~config:validating (Shard.store t "alpha")
          (Xpath_parser.parse "/child::*") Plan.simple)
       .Exec.nodes)
      .Store.id
  in
  let writer =
    spec ~ops:[ Workload.Insert_child { parent = root; tag = Tag.of_string "w" } ] "w"
      "/child::*" Plan.simple
  in
  (match Shard.run_clients ~cold:true t [| [ { Shard.tenant = "alpha"; spec = writer } ] |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for a writer spec");
  let q = spec "q" "/child::*" Plan.simple in
  (match Shard.run_clients ~cold:true t [| [ { Shard.tenant = "nobody"; spec = q } ] |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for an unknown tenant");
  match Shard.run_clients ~cold:true t [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for an empty client array"

(* End to end: every (tenant, query) job run through the two-level
   scheduler must equal its serial cold run on the same tenant store,
   stats must cover every tenant and shard, and the run must end clean. *)
let sharded_mix_equals_serial () =
  let t = topology () in
  let names = List.map fst (tenant_docs ()) in
  let clients =
    Array.of_list
      (List.concat_map
         (fun name -> List.map (fun s -> [ { Shard.tenant = name; spec = s } ]) (mix ()))
         names)
  in
  let expected =
    List.concat_map
      (fun name ->
        List.map
          (fun s ->
            ( (name, s.Workload.label),
              ids_of
                (Exec.cold_run ~config:validating (Shard.store t name) s.Workload.path
                   s.Workload.plan)
                  .Exec.nodes ))
          (mix ()))
      names
  in
  let r = Shard.run_clients ~config:validating ~cold:true t clients in
  check Alcotest.(list string) "no invariant violations" [] r.Shard.violations;
  check Alcotest.int "every job ran" (Array.length clients) (List.length r.Shard.jobs);
  List.iter
    (fun (tenant, (j : Workload.job)) ->
      let want = List.assoc (tenant, j.Workload.job_label) expected in
      check Alcotest.string
        (tenant ^ "/" ^ j.Workload.job_label ^ " completed")
        (Workload.status_to_string Workload.Completed)
        (Workload.status_to_string j.Workload.status);
      check id_list (tenant ^ "/" ^ j.Workload.job_label) want (ids_of j.Workload.nodes))
    r.Shard.jobs;
  check Alcotest.int "one stat row per tenant" (List.length names)
    (List.length r.Shard.tenant_stats);
  check Alcotest.int "one stat row per shard" 2 (List.length r.Shard.shard_stats);
  List.iter
    (fun (ts : Shard.tenant_stat) ->
      check Alcotest.int (ts.Shard.tenant ^ " job count") 4 ts.Shard.jobs;
      check Alcotest.bool (ts.Shard.tenant ^ " was served") true (ts.Shard.served_ticks > 0);
      check Alcotest.bool (ts.Shard.tenant ^ " p99 dominates p50") true
        (ts.Shard.p99 >= ts.Shard.p50))
    r.Shard.tenant_stats;
  check Alcotest.bool "ran concurrently" true (r.Shard.max_concurrent > 1);
  check Alcotest.bool "balancer turns advanced" true (r.Shard.turns > 0);
  let shard_reads =
    List.fold_left (fun a (s : Shard.shard_stat) -> a + s.Shard.page_reads) 0 r.Shard.shard_stats
  in
  check Alcotest.int "shard rows aggregate to the engine total" r.Shard.page_reads shard_reads

(* The per-tenant front door: a repeated statement from the same tenant
   is answered from the result cache at admission, while the identical
   statement from a co-located tenant recomputes — entries key on the
   tenant store's uid and content digest. *)
let shard_front_door_is_per_tenant () =
  let t = topology () in
  let caching = { validating with Context.result_cache = true } in
  Result_cache.clear ();
  Result_cache.reset_stats ();
  let q = spec "q" "/child::*/child::x" (Plan.xschedule ()) in
  let repeat = [| [ { Shard.tenant = "alpha"; spec = q }; { Shard.tenant = "alpha"; spec = q } ] |] in
  let r = Shard.run_clients ~config:caching ~cold:true t repeat in
  check Alcotest.(list string) "clean end" [] r.Shard.violations;
  check Alcotest.int "the repeat is a front-door hit" 1 r.Shard.cache_hits;
  let r2 =
    Shard.run_clients ~config:caching ~cold:false t
      [| [ { Shard.tenant = "beta"; spec = q } ] |]
  in
  check Alcotest.int "a neighbour never borrows the answer" 0 r2.Shard.cache_hits;
  Result_cache.clear ();
  Result_cache.reset_stats ()

(* --- schedule pins ------------------------------------------------------------ *)

(* A canonical dump of a run's simulated schedule: every per-job
   scheduling figure (clock values printed exactly, with [%h]) and the
   run-level totals. The expected dumps pin the schedule of both
   topologies: any change to admission, boosting, serving, recovery or
   the balancer shows up as a diff here. *)
let dump_job b tenant (j : Workload.job) =
  Printf.bprintf b
    "%s%s c%d %s n%d sub=%h st=%h fin=%h srv=%d stv=%d y=%d bo=%d sh=%b ch=%b wc=%d lw=%d sr=%d \
     fc=%d\n"
    tenant j.Workload.job_label j.Workload.client
    (Workload.status_to_string j.Workload.status)
    j.Workload.count j.Workload.submitted j.Workload.started j.Workload.finished
    j.Workload.served_ticks j.Workload.starved_ticks j.Workload.yields j.Workload.boosts
    j.Workload.shared j.Workload.cache_hit j.Workload.writer_commits j.Workload.latch_waits
    j.Workload.snapshot_retries j.Workload.finish_commit

let dump_run ~jobs ~turns ~max_concurrent ~rebalance_moves ~page_reads ~commits =
  let b = Buffer.create 1024 in
  List.iter (fun (tenant, j) -> dump_job b tenant j) jobs;
  Printf.bprintf b "turns=%d maxc=%d moves=%d reads=%d commits=%d\n" turns max_concurrent
    rebalance_moves page_reads commits;
  Buffer.contents b

(* (a) One pool, front door on: readers with repeated statements
   (followers and cache hits), two writer clients, a zero-deadline job,
   and a two-frame pool under a tiny memory budget, so fallen-back
   streams wedge and are recovered serially. *)
let pinned_single_pool () =
  let store, import = Gen.import_store ~payload:96 ~page_size:256 ~capacity:2 (doc ()) in
  let ids = import.Import.node_ids in
  let config = { validating with Context.result_cache = true; memory_budget = 2 } in
  let w1 =
    spec
      ~ops:
        [
          Workload.Insert_child { parent = ids.(0); tag = Tag.of_string "w" };
          Workload.Delete_subtree ids.(7);
        ]
      "w1" "/child::*" Plan.simple
  in
  let w2 =
    spec
      ~ops:
        [
          Workload.Insert_child { parent = ids.(1); tag = Tag.of_string "y" };
          Workload.Insert_child { parent = ids.(0); tag = Tag.of_string "w" };
        ]
      "w2" "/child::*" Plan.simple
  in
  let qx = spec "q-x" "/child::*/child::x" (Plan.xschedule ()) in
  let qy = spec "q-y" "/descendant::y" (Plan.xscan ()) in
  let qa = spec "q-a" "/child::a" (Plan.xschedule ()) in
  let qd = spec "q-d" "/descendant::x" (Plan.xschedule ()) in
  let qe = spec "q-e" "/child::*/child::y" (Plan.xschedule ()) in
  let qt = spec ~timeout:0.0 "q-t" "/descendant::y" (Plan.xschedule ()) in
  let clients =
    [| [ qx; qd; qx ]; [ qe; qa; qd ]; [ qy; qt; qe ]; [ qd; qx; qy ]; [ qe; qd ]; [ w1 ]; [ w2 ] |]
  in
  Result_cache.clear ();
  let r = Workload.run_clients ~config ~cold:true store clients in
  Result_cache.clear ();
  dump_run
    ~jobs:(List.map (fun j -> ("", j)) r.Workload.jobs)
    ~turns:r.Workload.turns ~max_concurrent:r.Workload.max_concurrent ~rebalance_moves:0
    ~page_reads:r.Workload.page_reads ~commits:(List.length r.Workload.commit_log)

(* (b)/(c) The sharded engine, front door off, over the three tenant
   documents: on two shards, and co-located on one shard, where a
   tenant waits long enough for the fairness gate to override the
   balancer. *)
let pinned_shards ~shards =
  let t = topology ~shards () in
  let j tenant label path plan = { Shard.tenant; spec = spec label path plan } in
  let clients =
    [|
      [
        j "alpha" "a-d" "/descendant::y" (Plan.xscan ());
        j "alpha" "a-x" "/child::*/child::x" (Plan.xschedule ());
      ];
      [
        j "alpha" "a-x" "/child::*/child::x" (Plan.xschedule ());
        j "beta" "b-all" "/descendant::*" (Plan.xschedule ());
      ];
      [
        j "beta" "b-c" "/descendant::c" (Plan.xschedule ());
        j "gamma" "g-b" "/descendant::B" Plan.simple;
      ];
      [
        j "gamma" "g-a" "/child::*/child::A" (Plan.xschedule ());
        j "alpha" "a-y" "/descendant::y" Plan.simple;
      ];
      [
        j "gamma" "g-c" "/descendant::C" (Plan.xscan ());
        j "beta" "b-d" "/descendant::d" (Plan.xschedule ());
      ];
    |]
  in
  let r = Shard.run_clients ~config:validating ~cold:true t clients in
  check Alcotest.(list string) "clean end" [] r.Shard.violations;
  ( dump_run
      ~jobs:(List.map (fun (tenant, j) -> (tenant ^ "/", j)) r.Shard.jobs)
      ~turns:r.Shard.turns ~max_concurrent:r.Shard.max_concurrent
      ~rebalance_moves:r.Shard.rebalance_moves ~page_reads:r.Shard.page_reads ~commits:0,
    r.Shard.rebalance_moves )

let pin_single_pool_expected = {|q-x c0 recovered n13 sub=0x0p+0 st=0x0p+0 fin=0x1.05335725348c8p-3 srv=1 stv=0 y=0 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=4
q-e c1 recovered n15 sub=0x0p+0 st=0x1.3d31b9b66f932p-10 fin=0x1.10344b3614048p-3 srv=2 stv=0 y=1 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=4
q-y c2 completed n14 sub=0x0p+0 st=0x1.affa6b861f9dp-8 fin=0x1.434de6b58b826p-6 srv=3 stv=0 y=1 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
q-d c3 completed n14 sub=0x0p+0 st=0x1.434de6b58b826p-6 fin=0x1.1316b4ec759e1p-5 srv=4 stv=0 y=1 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
q-e c4 recovered n15 sub=0x0p+0 st=0x1.1316b4ec759e1p-5 fin=0x1.427f6af1297dfp-5 srv=2 stv=0 y=1 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=4
w1 c5 completed n0 sub=0x0p+0 st=0x1.427f6af1297dfp-5 fin=0x1.b9edb48060ea2p-4 srv=4 stv=0 y=0 bo=0 sh=false ch=false wc=2 lw=0 sr=0 fc=2
w2 c6 completed n0 sub=0x0p+0 st=0x1.b9edb48060ea2p-4 fin=0x1.68fbd531ddd06p-3 srv=4 stv=0 y=0 bo=0 sh=false ch=false wc=2 lw=0 sr=0 fc=4
q-d c0 completed n13 sub=0x1.3d31b9b66f932p-10 st=0x1.68fbd531ddd06p-3 fin=0x1.855349be65218p-3 srv=4 stv=0 y=1 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=4
q-a c1 completed n8 sub=0x1.affa6b861f9dp-8 st=0x1.855349be65218p-3 fin=0x1.ef9da9951b081p-3 srv=8 stv=0 y=7 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=4
q-t c2 timed-out n0 sub=0x1.434de6b58b826p-6 st=0x1.ef9da9951b081p-3 fin=0x1.ef9da9951b081p-3 srv=0 stv=0 y=0 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=4
q-d c4 completed n13 sub=0x1.427f6af1297dfp-5 st=0x1.ef9da9951b081p-3 fin=0x1.ef9da9951b081p-3 srv=0 stv=0 y=0 bo=0 sh=false ch=true wc=0 lw=0 sr=0 fc=4
q-d c1 completed n13 sub=0x1.ef9da9951b081p-3 st=0x1.ef9da9951b081p-3 fin=0x1.ef9da9951b081p-3 srv=0 stv=0 y=0 bo=0 sh=false ch=true wc=0 lw=0 sr=0 fc=4
q-x c3 recovered n13 sub=0x1.1316b4ec759e1p-5 st=0x1.ef9da9951b081p-3 fin=0x1.fb735b3e635b5p-3 srv=2 stv=0 y=1 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=4
q-x c0 recovered n13 sub=0x1.855349be65218p-3 st=0x1.ef9da9951b081p-3 fin=0x1.fb735b3e635b5p-3 srv=2 stv=0 y=0 bo=0 sh=true ch=false wc=0 lw=0 sr=0 fc=4
q-e c2 recovered n15 sub=0x1.ef9da9951b081p-3 st=0x1.fb735b3e635b5p-3 fin=0x1.033c659393bcap-2 srv=2 stv=0 y=1 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=4
q-y c3 completed n15 sub=0x1.fb735b3e635b5p-3 st=0x1.033c659393bcap-2 fin=0x1.10b15a50d3f7cp-2 srv=3 stv=0 y=1 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=4
turns=39 maxc=1 moves=0 reads=610 commits=4
|}
let pin_two_shards_expected = {|gamma/g-c c4 completed n4 sub=0x0p+0 st=0x0p+0 fin=0x1.dba50136f6c8bp-7 srv=2 stv=5 y=1 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
gamma/g-a c3 completed n2 sub=0x0p+0 st=0x0p+0 fin=0x1.dba50136f6c8bp-7 srv=3 stv=6 y=2 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
alpha/a-d c0 completed n14 sub=0x0p+0 st=0x0p+0 fin=0x1.45f723d24df6ep-5 srv=2 stv=9 y=0 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
beta/b-c c2 completed n1 sub=0x0p+0 st=0x0p+0 fin=0x1.94e19bec7354cp-5 srv=2 stv=10 y=1 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
gamma/g-b c2 completed n5 sub=0x1.dba50136f6c8bp-7 st=0x1.dba50136f6c8bp-7 fin=0x1.dba50136f6c8bp-7 srv=1 stv=0 y=0 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
beta/b-d c4 completed n1 sub=0x1.324e7e9c5206cp-6 st=0x1.324e7e9c5206cp-6 fin=0x1.d16fb84b0247ep-4 srv=2 stv=11 y=1 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
alpha/a-x c1 completed n14 sub=0x0p+0 st=0x0p+0 fin=0x1.6539da4436d9fp-3 srv=9 stv=19 y=7 bo=3 sh=false ch=false wc=0 lw=0 sr=0 fc=0
alpha/a-x c0 completed n14 sub=0x1.45f723d24df6ep-5 st=0x1.45f723d24df6ep-5 fin=0x1.c9c1e96c22c18p-3 srv=9 stv=15 y=7 bo=2 sh=false ch=false wc=0 lw=0 sr=0 fc=0
beta/b-all c1 completed n4 sub=0x1.6539da4436d9fp-3 st=0x1.6539da4436d9fp-3 fin=0x1.00abe52c6043bp-2 srv=5 stv=7 y=4 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
alpha/a-y c3 completed n14 sub=0x1.c8fa471a30ab7p-6 st=0x1.c8fa471a30ab7p-6 fin=0x1.0200aeb250b35p-2 srv=6 stv=26 y=5 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
turns=41 maxc=5 moves=0 reads=295 commits=0
|}
let pin_one_shard_expected = {|beta/b-c c2 completed n1 sub=0x0p+0 st=0x0p+0 fin=0x1.ac6f607803ddbp-5 srv=2 stv=6 y=1 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
gamma/g-a c3 completed n2 sub=0x0p+0 st=0x0p+0 fin=0x1.22d73e529753ap-3 srv=3 stv=20 y=2 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
gamma/g-b c2 completed n5 sub=0x1.ac6f607803ddbp-5 st=0x1.ad8001aff76ap-5 fin=0x1.89710e9c0d1ap-3 srv=4 stv=17 y=3 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
alpha/a-x c1 completed n14 sub=0x0p+0 st=0x0p+0 fin=0x1.fdac0371ea65cp-3 srv=14 stv=24 y=13 bo=5 sh=false ch=false wc=0 lw=0 sr=0 fc=0
alpha/a-d c0 completed n14 sub=0x0p+0 st=0x0p+0 fin=0x1.08ff99bd9faa9p-2 srv=9 stv=32 y=7 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
gamma/g-c c4 completed n4 sub=0x0p+0 st=0x0p+0 fin=0x1.178375725b331p-2 srv=5 stv=39 y=4 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
beta/b-d c4 completed n1 sub=0x1.178375725b331p-2 st=0x1.178375725b331p-2 fin=0x1.4d2e5c57f9d6p-2 srv=2 stv=6 y=1 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
beta/b-all c1 completed n4 sub=0x1.fdac0371ea65cp-3 st=0x1.fdac0371ea65cp-3 fin=0x1.6d92237d1511fp-2 srv=5 stv=13 y=4 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
alpha/a-x c0 completed n14 sub=0x1.08ff99bd9faa9p-2 st=0x1.08ff99bd9faa9p-2 fin=0x1.77eec5be96028p-2 srv=7 stv=10 y=5 bo=3 sh=false ch=false wc=0 lw=0 sr=0 fc=0
alpha/a-y c3 completed n14 sub=0x1.22d73e529753ap-3 st=0x1.2c31beccdd43cp-3 fin=0x1.89cbb533a999cp-2 srv=9 stv=28 y=8 bo=0 sh=false ch=false wc=0 lw=0 sr=0 fc=0
turns=60 maxc=5 moves=1 reads=317 commits=0
|}

let schedules_are_pinned () =
  check Alcotest.string "(a) single pool, writers, recovery" pin_single_pool_expected
    (pinned_single_pool ());
  check Alcotest.string "(b) two shards" pin_two_shards_expected (fst (pinned_shards ~shards:2));
  let one, moves = pinned_shards ~shards:1 in
  check Alcotest.string "(c) one shard" pin_one_shard_expected one;
  check Alcotest.bool "(c) the fairness gate fired" true (moves > 0)

(* A covering index reader answers from the entry lists it read when
   its stream was built, touching no page, so the cluster snapshot rule
   alone would never restart it. With more results than one turn
   serves, the writer's insert commits between its turns: the reader
   must restart and return the post-commit answer. *)
let index_reader_restarts_on_commit () =
  let store = build ~capacity:16 (Gen.wide_tree ~children:3000 ()) in
  let reader = spec "r" "/child::b" (Plan.xindex ()) in
  let writer =
    spec
      ~ops:[ Workload.Insert_child { parent = Store.root store; tag = Tag.of_string "b" } ]
      "w" "/child::*" Plan.simple
  in
  let r = Workload.run_clients ~config:validating ~cold:true store [| [ reader ]; [ writer ] |] in
  check Alcotest.(list string) "clean end" [] r.Workload.violations;
  let j = job_by_label r "r" in
  check Alcotest.int "the reader finished after the commit" 1 j.Workload.finish_commit;
  check Alcotest.int "one snapshot restart" 1 j.Workload.snapshot_retries;
  check Alcotest.(list string) "the post-commit answer"
    (List.map Node_id.to_string (serial_ids store validating reader))
    (List.map Node_id.to_string (ids_of j.Workload.nodes))

(* --- bad specs and shard followers ------------------------------------------ *)

(* A reordered plan over a non-downward path is rejected before any
   state moves. The bad job is queued behind a quick one while a long
   XSchedule scan holds its current cluster pinned: had the engine only
   found out at admission, the raise would strand that pin. *)
let bad_spec_clients tenant_job =
  let long = spec "long" "/descendant::x" (Plan.xschedule ()) in
  let quick = spec "quick" "/child::a" (Plan.xschedule ()) in
  let bad = spec "bad" "/descendant::y/parent::*" (Plan.xschedule ()) in
  [| [ tenant_job long ]; [ tenant_job quick; tenant_job bad ] |]

let bad_spec_leaves_no_pins () =
  let store = build ~capacity:16 (Gen.wide_tree ~children:200 ()) in
  (match Workload.run_clients ~cold:true store (bad_spec_clients Fun.id) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for a non-downward reordered plan");
  check Alcotest.int "no pins leaked" 0 (Buffer_manager.pinned_count (Store.buffer store))

let shard_bad_spec_leaves_no_pins () =
  let t =
    Shard.create ~capacity:16 ~page_size:256 ~payload:96 ~shards:2
      [ ("wide", Gen.wide_tree ~children:200 ()); ("alpha", doc ()) ]
  in
  let wide spec = { Shard.tenant = "wide"; spec } in
  (match Shard.run_clients ~cold:true t (bad_spec_clients wide) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for a non-downward reordered plan");
  check Alcotest.int "no pins leaked" 0
    (Buffer_manager.pinned_count (Store.buffer (Shard.store t "wide")));
  (* The topology stays usable warm. *)
  let r =
    Shard.run_clients ~cold:false t
      [| [ wide (spec "quick" "/child::a" (Plan.xschedule ())) ] |]
  in
  check Alcotest.(list string) "clean warm rerun" [] r.Shard.violations

(* Followers on shards: two concurrent identical statements on one
   tenant share a single scan, while the same text on a neighbour runs
   its own. Every answer equals its tenant's serial cold run. *)
let shard_followers_stay_within_a_tenant () =
  let t = topology () in
  let caching = { validating with Context.result_cache = true } in
  let q = spec "q" "/child::*/child::x" (Plan.xschedule ()) in
  let want tenant = serial_ids (Shard.store t tenant) validating q in
  let expected = [ ("alpha", want "alpha"); ("beta", want "beta") ] in
  Result_cache.clear ();
  let job tenant = [ { Shard.tenant; spec = q } ] in
  let r =
    Shard.run_clients ~config:caching ~cold:true t [| job "alpha"; job "alpha"; job "beta" |]
  in
  Result_cache.clear ();
  check Alcotest.(list string) "clean end" [] r.Shard.violations;
  let shared tenant =
    List.length
      (List.filter (fun (tn, (j : Workload.job)) -> tn = tenant && j.Workload.shared) r.Shard.jobs)
  in
  check Alcotest.int "one alpha job rides the other's scan" 1 (shared "alpha");
  check Alcotest.int "beta never follows alpha" 0 (shared "beta");
  List.iter
    (fun (tenant, (j : Workload.job)) ->
      check id_list (tenant ^ " equals serial") (List.assoc tenant expected)
        (ids_of j.Workload.nodes))
    r.Shard.jobs

(* A sharded differential case where co-located lanes' pins (batch
   installs overcommit a 16-frame MRU pool) leave no frame for a Simple
   plan to read its context node while it is being admitted. The job
   must be recovered serially, not raise out of the engine. *)
let full_pool_at_admission_recovers () =
  let module D = Xnav_check.Differential in
  let case =
    {
      D.doc_seed = 108992;
      fidelity = 0.001;
      physical =
        {
          D.strategy = Import.Bfs;
          page_size = 512;
          payload = 220;
          capacity = 16;
          policy = Io_scheduler.Elevator;
          replacement = Buffer_manager.Mru;
        };
      k = 100;
      speculative = false;
      memory_budget = 1_000_000;
      path = Xpath_parser.parse "/descendant-or-self::*";
    }
  in
  check Alcotest.(list string) "sharded run equals serial" []
    (List.map
       (fun m -> m.D.plan ^ ": " ^ m.D.detail)
       ((Option.get (D.find_tier "shards")).D.check case))

(* --- one result per turn ----------------------------------------------------- *)

module Eval_ref = Xnav_xpath.Eval_ref

(* Runs [queries] at once with [~quantum:0.0] — every turn serves one
   result, the finest interleaving the engine has — and pairs each job's
   count with the reference evaluator's. *)
let quantum_zero ?strategy ?capacity ~payload tree queries =
  let store, import = Gen.import_store ?strategy ?capacity ~payload tree in
  let specs =
    List.mapi
      (fun i (path, plan) ->
        { Workload.label = string_of_int i; path = Xpath_parser.parse path; plan; timeout = None;
          ops = [] })
      queries
  in
  let r = Workload.run ~quantum:0.0 ~cold:true store specs in
  let counts =
    List.map
      (fun (s : Workload.spec) ->
        (s.Workload.label, Eval_ref.count tree s.Workload.path,
         (job_by_label r s.Workload.label).Workload.count))
      specs
  in
  (r, import, counts)

let check_counts counts =
  List.iter (fun (label, want, got) -> check Alcotest.int ("query " ^ label) want got) counts

(* Every lane served one result per turn matches the oracle. *)
let oracle_case ?capacity ~payload tree queries () =
  let _, _, counts = quantum_zero ?capacity ~payload tree queries in
  check_counts counts

(* Sec. 2's warning, observed: two sequential scans never seek, but
   served one result per turn they drag the head between two scan
   positions. *)
let concurrent_scans_seek () =
  let r, _, _ =
    quantum_zero ~payload:220 (Gen.wide_tree ~children:200 ())
      [ ("//b", Plan.xscan ()); ("//x", Plan.xscan ()) ]
  in
  check Alcotest.bool "scans fight for the head" true (r.Workload.seek_distance > 0)

(* The same scan twice reads fewer pages than two scans: the second
   lane finds the first one's pages resident. *)
let repeated_scan_rides_the_buffer () =
  let r, import, counts =
    quantum_zero ~capacity:256 ~payload:220 (Gen.wide_tree ~children:80 ())
      [ ("//b", Plan.xscan ()); ("//b", Plan.xscan ()) ]
  in
  check Alcotest.bool "reads less than two full scans" true
    (r.Workload.page_reads < 2 * import.Import.page_count);
  check_counts counts

let empty_spec_list_rejected () =
  let store = build ~capacity:16 (doc ()) in
  match Workload.run ~cold:true store [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for an empty spec list"

let percentiles_are_nearest_rank () =
  let xs = [ 4.0; 1.0; 3.0; 2.0; 5.0 ] in
  check (Alcotest.float 1e-9) "p50" 3.0 (Workload.percentile xs 50.0);
  check (Alcotest.float 1e-9) "p95" 5.0 (Workload.percentile xs 95.0);
  check (Alcotest.float 1e-9) "p99" 5.0 (Workload.percentile xs 99.0);
  check (Alcotest.float 1e-9) "empty" 0.0 (Workload.percentile [] 50.0)

let suite =
  [
    ( "workload",
      [
        Alcotest.test_case "concurrent mix equals serial per query" `Quick
          concurrent_equals_serial;
        Alcotest.test_case "admission scales with pool capacity" `Quick
          admission_scales_with_capacity;
        Alcotest.test_case "timeout unwinds through abort_async" `Quick timeout_unwinds_cleanly;
        Alcotest.test_case "fairness counters advance under contention" `Quick
          fairness_counters_advance;
        Alcotest.test_case "closed-loop clients drain their job queues" `Quick
          closed_loop_clients_drain;
        Alcotest.test_case "writer mix commits and replays serially" `Quick
          writer_mix_commits_and_replays;
        Alcotest.test_case "a conflicting commit restarts the reader's snapshot" `Quick
          snapshot_conflict_restarts_reader;
        Alcotest.test_case "untouched paths keep hitting the cache across commits" `Quick
          untouched_paths_keep_hitting_across_commits;
        Alcotest.test_case "latency percentiles use nearest rank" `Quick
          percentiles_are_nearest_rank;
        Alcotest.test_case "single-pool and sharded schedules are pinned" `Quick
          schedules_are_pinned;
        Alcotest.test_case "a bad spec is rejected before any pin is taken" `Quick
          bad_spec_leaves_no_pins;
        Alcotest.test_case "an empty spec list is rejected" `Quick empty_spec_list_rejected;
        Alcotest.test_case "an index reader restarts on any commit" `Quick
          index_reader_restarts_on_commit;
      ] );
    ( "workload.turns",
      [
        Alcotest.test_case "two schedule plans agree with the oracle" `Quick
          (oracle_case ~capacity:16 ~payload:220 (Gen.wide_tree ~children:80 ())
             [ ("//b", Plan.xschedule ()); ("//x", Plan.xschedule ()) ]);
        Alcotest.test_case "mixed plan kinds coexist" `Quick
          (oracle_case ~capacity:16 ~payload:220 (Gen.wide_tree ~children:60 ())
             [
               ("//b", Plan.simple);
               ("//x", Plan.xscan ());
               ("//y", Plan.xschedule ~speculative:false ());
             ]);
        Alcotest.test_case "duplicate simple results are filtered per lane" `Quick
          (oracle_case ~payload:200 (Gen.sample_doc ())
             [ ("//A//B", Plan.Simple { dedup_intermediate = false }) ]);
        Alcotest.test_case "concurrent scans fight for the head" `Quick concurrent_scans_seek;
        Alcotest.test_case "same query twice: the second lane rides the buffer" `Quick
          repeated_scan_rides_the_buffer;
      ] );
    ( "workload.shards",
      [
        Alcotest.test_case "tenant placement is a stable hash" `Quick
          stable_placement_is_deterministic;
        Alcotest.test_case "writer specs and unknown tenants are rejected" `Quick
          shard_rejects_writers_and_strangers;
        Alcotest.test_case "sharded mix equals serial per tenant and query" `Quick
          sharded_mix_equals_serial;
        Alcotest.test_case "the front door is per-tenant" `Quick shard_front_door_is_per_tenant;
        Alcotest.test_case "a bad spec is rejected before any pin is taken" `Quick
          shard_bad_spec_leaves_no_pins;
        Alcotest.test_case "followers stay within a tenant" `Quick
          shard_followers_stay_within_a_tenant;
        Alcotest.test_case "a full pool at admission recovers the job" `Quick
          full_pool_at_admission_recovers;
      ] );
    Gen.qsuite "workload.props"
      [
        QCheck2.Test.make ~name:"one-result turns: all lanes match the oracle on random inputs"
          ~count:40
          QCheck2.Gen.(pair (Gen.tree_gen ~size:40 ()) (oneofl [ Import.Dfs; Import.Scattered 6 ]))
          ~print:(fun (tree, strategy) ->
            Printf.sprintf "%s / %s" (Gen.tree_print tree) (Import.strategy_to_string strategy))
          (fun (tree, strategy) ->
            let _, _, counts =
              quantum_zero ~strategy ~capacity:16 ~payload:180 tree
                [ ("//a", Plan.xschedule ()); ("//b//c", Plan.xscan ()); ("//d", Plan.simple) ]
            in
            List.for_all (fun (_, want, got) -> want = got) counts);
      ];
  ]

