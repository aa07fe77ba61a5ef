module Tree = Xnav_xml.Tree
module Axis = Xnav_xml.Axis
module Tag = Xnav_xml.Tag
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Io_scheduler = Xnav_storage.Io_scheduler
module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Path = Xnav_xpath.Path
module Eval_ref = Xnav_xpath.Eval_ref
module Plan = Xnav_core.Plan
module Exec = Xnav_core.Exec
module Multi = Xnav_core.Multi
module Workload = Xnav_workload.Workload
module Shard = Xnav_workload.Shard
module Update = Xnav_store.Update
module Context = Xnav_core.Context
module Result_cache = Xnav_core.Result_cache
module Xmark_gen = Xnav_xmark.Gen

(* --- deterministic sampling ---------------------------------------------- *)

(* Self-contained splitmix64: the sample must be reproducible across OCaml
   releases, which Stdlib.Random does not promise. *)
module Prng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.logxor (Int64.of_int seed) 0x5DEECE66DL }

  let next64 t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound =
    if bound <= 0 then invalid_arg "Prng.int";
    Int64.to_int (Int64.rem (Int64.shift_right_logical (next64 t) 1) (Int64.of_int bound))

  let pick t arr = arr.(int t (Array.length arr))
  let bool t = int t 2 = 0
end

(* --- the sampled space ---------------------------------------------------- *)

type physical = {
  strategy : Import.strategy;
  page_size : int;
  payload : int;
  capacity : int;
  policy : Io_scheduler.policy;
  replacement : Buffer_manager.replacement;
}

type case = {
  doc_seed : int;
  fidelity : float;
  physical : physical;
  k : int;
  speculative : bool;
  memory_budget : int;
  path : Path.t;
}

let default_physical =
  {
    strategy = Import.Dfs;
    page_size = 512;
    payload = 220;
    capacity = 16;
    policy = Io_scheduler.Elevator;
    replacement = Buffer_manager.Lru;
  }

let fidelities = [| 0.001; 0.002; 0.003 |]

let sample_physical prng =
  {
    strategy =
      (match Prng.int prng 4 with
      | 0 -> Import.Dfs
      | 1 -> Import.Bfs
      | _ -> Import.Scattered (1 + Prng.int prng 97));
    page_size = Prng.pick prng [| 512; 1024 |];
    payload = 160 + (20 * Prng.int prng 12);
    capacity = Prng.pick prng [| 1; 2; 2; 3; 4; 8; 32 |];
    policy = Prng.pick prng (Array.of_list Io_scheduler.all_policies);
    replacement = Prng.pick prng (Array.of_list Buffer_manager.all_replacements);
  }

let sample_path prng tags =
  let len = 1 + Prng.int prng 3 in
  List.init len (fun _ ->
      let axis =
        Prng.pick prng [| Axis.Child; Axis.Child; Axis.Descendant; Axis.Descendant_or_self; Axis.Self |]
      in
      let test =
        match Prng.int prng 5 with
        | 0 -> Path.Wildcard
        | 1 -> Path.Any_node
        | _ -> Path.Name (Prng.pick prng tags)
      in
      Path.step axis test)

let sample_case prng ~doc_seed ~fidelity ~physical ~tags =
  {
    doc_seed;
    fidelity;
    physical;
    k = Prng.pick prng [| 1; 2; 8; 100 |];
    speculative = Prng.bool prng;
    memory_budget = Prng.pick prng [| 0; 16; 1_000_000; 1_000_000 |];
    path = sample_path prng tags;
  }

(* --- building the physical document -------------------------------------- *)

let document ~doc_seed ~fidelity =
  Xmark_gen.generate ~config:{ Xmark_gen.scale = 1.0; fidelity; seed = doc_seed } ()

(* Documents are pure functions of (seed, fidelity); generation dominates
   the harness runtime, so memoise them. *)
let doc_cache : (int * float, Tree.t) Hashtbl.t = Hashtbl.create 16

let cached_document ~doc_seed ~fidelity =
  match Hashtbl.find_opt doc_cache (doc_seed, fidelity) with
  | Some doc -> doc
  | None ->
    let doc = document ~doc_seed ~fidelity in
    Hashtbl.replace doc_cache (doc_seed, fidelity) doc;
    doc

let build_store ~doc (p : physical) =
  let config = { Disk.default_config with Disk.page_size = p.page_size } in
  let disk = Disk.create ~config () in
  let import = Import.run ~strategy:p.strategy ~payload:p.payload disk doc in
  let buffer =
    Buffer_manager.create ~capacity:p.capacity ~policy:p.policy ~replacement:p.replacement disk
  in
  (Store.attach buffer import, import)

(* --- one case: every plan against the reference evaluator ----------------- *)

type mismatch = { plan : string; detail : string }

let context_config case =
  {
    Context.default_config with
    Context.k = case.k;
    memory_budget = case.memory_budget;
    validate = true;
  }

let expected_ids doc (import : Import.result) path =
  Eval_ref.eval doc path
  |> List.map (fun n -> import.Import.node_ids.(n.Tree.preorder))
  |> List.sort Node_id.compare

let ids_of infos = List.map (fun (i : Store.info) -> i.Store.id) infos |> List.sort Node_id.compare

let pp_ids ppf ids = Fmt.(Dump.list (fun ppf id -> Node_id.pp ppf id)) ppf ids

let plans_for case =
  [
    ("simple", Plan.simple);
    ("simple-nodedup", Plan.Simple { dedup_intermediate = false });
    ("xschedule", Plan.xschedule ~speculative:case.speculative ());
    ("xscan", Plan.xscan ());
  ]
  @
  if Path.starts_with_descendant_any case.path then [ ("xscan-dslash", Plan.xscan ~dslash:true ()) ]
  else []

(* Post-run storage sweep for the execution paths that do not go through
   [Exec.run]'s invariant hook (Multi). *)
let storage_clean store =
  let buffer = Store.buffer store in
  let pinned = Buffer_manager.pinned_count buffer in
  if pinned <> 0 then Some (Printf.sprintf "%d frames left pinned" pinned)
  else begin
    let sched = Buffer_manager.scheduler buffer in
    let pending = Io_scheduler.pending_count sched in
    if pending <> 0 then Some (Printf.sprintf "%d I/O requests left pending" pending)
    else Io_scheduler.consistency_error sched
  end

let check_built ~doc ~store ~import case =
  let config = context_config case in
  let expected = expected_ids doc import case.path in
  let mismatches = ref [] in
  let record plan detail = mismatches := { plan; detail } :: !mismatches in
  let compare_ids plan got =
    if got <> expected then
      record plan
        (Format.asprintf "expected %d nodes %a, got %d nodes %a" (List.length expected) pp_ids
           expected (List.length got) pp_ids got)
  in
  let guarded plan f =
    match f () with
    | got ->
      compare_ids plan got;
      (match storage_clean store with
      | None -> ()
      | Some msg -> record plan msg)
    | exception e -> record plan (Printf.sprintf "raised %s" (Printexc.to_string e))
  in
  List.iter
    (fun (name, plan) ->
      guarded name (fun () -> (Exec.cold_run ~config store case.path plan).Exec.nodes |> ids_of))
    (plans_for case);
  guarded "multi" (fun () ->
      let r = Multi.run ~config ~cold:true store [ case.path ] in
      ids_of r.Multi.per_path.(0));
  List.rev !mismatches

(* One case on its own: build the case's store, then run a tier's check
   against it — what a reproducer replays and shrinking re-executes. *)
let one_case check_built case =
  let doc = cached_document ~doc_seed:case.doc_seed ~fidelity:case.fidelity in
  let store, import = build_store ~doc case.physical in
  check_built ~doc ~store ~import case

let check_case = one_case check_built

(* --- swizzling tier ------------------------------------------------------- *)

(* Swizzling is a pure caching layer: with it forced off every view access
   re-decodes from the page, i.e. the pre-swizzling regime. Running each
   plan both ways must give identical results AND identical scheduling
   behaviour (the queue counters) — a divergence means the cache leaked
   into plan semantics. *)
let check_swizzle_built ~store case =
  let config = context_config case in
  let mismatches = ref [] in
  let record plan detail = mismatches := { plan; detail } :: !mismatches in
  let saved = Store.swizzling store in
  let run_plan plan on =
    Store.set_swizzling store on;
    Exec.cold_run ~config store case.path plan
  in
  List.iter
    (fun (name, plan) ->
      match
        let on = run_plan plan true in
        let off = run_plan plan false in
        (on, off)
      with
      | on, off ->
        let on_ids = ids_of on.Exec.nodes and off_ids = ids_of off.Exec.nodes in
        if on_ids <> off_ids then
          record name
            (Format.asprintf "swizzled: %d nodes %a, unswizzled: %d nodes %a"
               (List.length on_ids) pp_ids on_ids (List.length off_ids) pp_ids off_ids);
        let mon = on.Exec.metrics and moff = off.Exec.metrics in
        if
          mon.Exec.q_enqueued <> moff.Exec.q_enqueued
          || mon.Exec.q_served <> moff.Exec.q_served
        then
          record name
            (Printf.sprintf
               "queue counters diverge: swizzled enqueued/served %d/%d, unswizzled %d/%d"
               mon.Exec.q_enqueued mon.Exec.q_served moff.Exec.q_enqueued moff.Exec.q_served);
        if moff.Exec.swizzle_hits <> 0 then
          record name
            (Printf.sprintf "%d decode-cache hits recorded with swizzling off"
               moff.Exec.swizzle_hits)
      | exception e -> record name (Printf.sprintf "raised %s" (Printexc.to_string e)))
    (plans_for case);
  Store.set_swizzling store saved;
  List.rev !mismatches

(* --- batching tier -------------------------------------------------------- *)

(* Coalesced reads, cost-sensitive queue serving and adaptive scan
   windows reorder and batch physical I/O, but must not change what a
   plan computes: with the knobs fully off (the historical single-page
   regime) and fully on (the defaults), every plan must produce the same
   result set — under the full invariant suite — and the off run must not
   touch any batch path. *)
let knobs_off config =
  {
    config with
    Context.coalesce_window = 0;
    scan_threshold = 0.0;
  }

let knobs_on config =
  {
    config with
    Context.coalesce_window = 16;
    scan_threshold = 0.5;
  }

let check_batching_built ~store case =
  let config = context_config case in
  let mismatches = ref [] in
  let record plan detail = mismatches := { plan; detail } :: !mismatches in
  List.iter
    (fun (name, plan) ->
      match
        let off = Exec.cold_run ~config:(knobs_off config) store case.path plan in
        let on = Exec.cold_run ~config:(knobs_on config) store case.path plan in
        (off, on)
      with
      | off, on ->
        let off_ids = ids_of off.Exec.nodes and on_ids = ids_of on.Exec.nodes in
        if off_ids <> on_ids then
          record name
            (Format.asprintf "knobs off: %d nodes %a, knobs on: %d nodes %a"
               (List.length off_ids) pp_ids off_ids (List.length on_ids) pp_ids on_ids);
        let m = off.Exec.metrics in
        if
          m.Exec.batched_reads <> 0 || m.Exec.batch_pages <> 0 || m.Exec.coalesce_runs <> 0
          || m.Exec.scan_windows <> 0
          || m.Exec.scan_window_pages <> 0
        then
          record name
            (Printf.sprintf
               "knobs-off run touched the batch path: batches %d (%d pages, %d coalesced), \
                windows %d (%d pages)"
               m.Exec.batched_reads m.Exec.batch_pages m.Exec.coalesce_runs m.Exec.scan_windows
               m.Exec.scan_window_pages)
      | exception e -> record name (Printf.sprintf "raised %s" (Printexc.to_string e)))
    (plans_for case);
  List.rev !mismatches

(* --- workload tier -------------------------------------------------------- *)

(* Concurrency must be invisible in the answers: running every plan of
   the case at once through the workload engine — admission control,
   interleaved streams, cross-query coalescing, Buffer_full recovery and
   all — must give each query exactly the node set its serial cold run
   produces. The sampled capacities go down to 1, which exercises the
   degenerate serialising admission path. *)
let check_workload_built ~store case =
  let config = context_config case in
  let mismatches = ref [] in
  let record plan detail = mismatches := { plan; detail } :: !mismatches in
  let plans = plans_for case in
  let serial =
    List.map
      (fun (name, plan) ->
        (name, ids_of (Exec.cold_run ~config store case.path plan).Exec.nodes))
      plans
  in
  let specs =
    List.map
      (fun (name, plan) ->
        { Workload.label = name; path = case.path; plan; timeout = None; ops = [] })
      plans
  in
  (match Workload.run ~config ~cold:true store specs with
  | r ->
    List.iter
      (fun (job : Workload.job) ->
        let expected = List.assoc job.Workload.job_label serial in
        let got = ids_of job.Workload.nodes in
        if got <> expected then
          record job.Workload.job_label
            (Format.asprintf "serial: %d nodes %a, concurrent (%s): %d nodes %a"
               (List.length expected) pp_ids expected
               (Workload.status_to_string job.Workload.status)
               (List.length got) pp_ids got))
      r.Workload.jobs;
    if List.length r.Workload.jobs <> List.length plans then
      record "workload"
        (Printf.sprintf "%d queries submitted but %d jobs reported" (List.length plans)
           (List.length r.Workload.jobs));
    List.iter (fun msg -> record "workload" msg) r.Workload.violations;
    (match storage_clean store with
    | None -> ()
    | Some msg -> record "workload" msg)
  | exception e -> record "workload" (Printf.sprintf "raised %s" (Printexc.to_string e)));
  List.rev !mismatches

(* --- writers tier --------------------------------------------------------- *)

(* Concurrent reads and in-place writes must equal a serial replay of the
   same commit schedule. The engine reports each reader's [finish_commit]
   (how many writer ops had committed when it finished) and the
   [commit_log] (the committed ops in serial order); on a twin store —
   the deterministic import gives it identical physical NodeIDs — we
   apply the log prefix up to each reader's finish point and evaluate its
   statement serially. The snapshot rule makes the reader's concurrent
   answer exactly that serial answer; after the full log, both stores
   must hold the identical document (id/tag/ordpath fingerprint). *)
let everything = [ Path.step Axis.Descendant_or_self Path.Any_node ]

let fingerprint ~config store =
  (Exec.run ~config ~ordered:true store everything Plan.simple).Exec.nodes
  |> List.map (fun (i : Store.info) -> (i.Store.id, i.Store.tag, i.Store.ordpath))

let fingerprint_equal a b =
  List.equal
    (fun (ida, ta, oa) (idb, tb, ob) ->
      Node_id.equal ida idb && Tag.equal ta tb && Xnav_xml.Ordpath.compare oa ob = 0)
    a b

let apply_op store = function
  | Workload.Insert_child { parent; tag } -> ignore (Update.insert_element store ~parent tag)
  | Workload.Delete_subtree victim -> ignore (Update.delete_subtree store victim)

let sample_ops prng (import : Import.result) tags =
  let ids = import.Import.node_ids in
  let n = Array.length ids in
  let count = 2 + Prng.int prng 3 in
  List.init count (fun _ ->
      if n <= 1 || Prng.bool prng then
        Workload.Insert_child { parent = ids.(Prng.int prng n); tag = Prng.pick prng tags }
      else Workload.Delete_subtree ids.(1 + Prng.int prng (n - 1)))

let check_writers_built ~doc ~import case =
  (* Writers mutate the store, so this tier never touches the batch's
     shared one: the concurrent run and the serial replay each get a
     fresh, identically-imported twin. *)
  let store, _ = build_store ~doc case.physical in
  let twin, _ = build_store ~doc case.physical in
  let config = context_config case in
  let mismatches = ref [] in
  let record plan detail = mismatches := { plan; detail } :: !mismatches in
  let tags = Array.of_list (List.map fst (Store.tag_counts store)) in
  (* Ops are a pure function of the case (not of global sampling state),
     so a shrunk case replays the same schedule. *)
  let prng =
    Prng.create (case.doc_seed lxor (31 * List.length case.path) lxor (997 * case.k))
  in
  let writers =
    List.init
      (1 + Prng.int prng 2)
      (fun i ->
        {
          Workload.label = Printf.sprintf "writer-%d" i;
          path = case.path;
          plan = Plan.simple;
          timeout = None;
          ops = sample_ops prng import tags;
        })
  in
  let readers =
    List.map
      (fun (name, plan) ->
        { Workload.label = name; path = case.path; plan; timeout = None; ops = [] })
      (plans_for case)
  in
  let clients = Array.of_list (List.map (fun s -> [ s ]) (readers @ writers)) in
  (match Workload.run_clients ~config ~cold:true store clients with
  | r ->
    List.iter (fun msg -> record "writers" msg) r.Workload.violations;
    (match storage_clean store with
    | None -> ()
    | Some msg -> record "writers" msg);
    (* Serial replay: walk the readers in finish order, applying the
       commit log up to each one's finish point before evaluating. *)
    let applied = ref 0 in
    let log = ref r.Workload.commit_log in
    let advance_to k =
      while !applied < k do
        (match !log with
        | op :: rest ->
          log := rest;
          apply_op twin op
        | [] -> failwith "commit log shorter than a finish_commit point");
        incr applied
      done
    in
    let reader_jobs =
      List.filter
        (fun (j : Workload.job) ->
          not
            (List.exists
               (fun (w : Workload.spec) -> w.Workload.label = j.Workload.job_label)
               writers))
        r.Workload.jobs
    in
    List.iter
      (fun (j : Workload.job) ->
        match advance_to j.Workload.finish_commit with
        | () ->
          let expected =
            ids_of (Exec.run ~config ~ordered:false twin case.path Plan.simple).Exec.nodes
          in
          let got = ids_of j.Workload.nodes in
          if got <> expected then
            record j.Workload.job_label
              (Format.asprintf
                 "serial replay at commit %d: %d nodes %a, concurrent (%s): %d nodes %a"
                 j.Workload.finish_commit (List.length expected) pp_ids expected
                 (Workload.status_to_string j.Workload.status)
                 (List.length got) pp_ids got)
        | exception e ->
          record j.Workload.job_label
            (Printf.sprintf "replay raised %s" (Printexc.to_string e)))
      (List.sort
         (fun (a : Workload.job) b -> compare a.Workload.finish_commit b.Workload.finish_commit)
         reader_jobs);
    (* Drain the rest of the log and compare the final documents. *)
    (match advance_to r.Workload.writer_commits with
    | () ->
      if not (fingerprint_equal (fingerprint ~config store) (fingerprint ~config twin)) then
        record "writers" "final documents diverge between the concurrent store and the replay"
    | exception e -> record "writers" (Printf.sprintf "final replay raised %s" (Printexc.to_string e)))
  | exception e -> record "writers" (Printf.sprintf "raised %s" (Printexc.to_string e)));
  List.rev !mismatches

(* --- shards tier ----------------------------------------------------------- *)

(* Sharded tenancy must be invisible in the answers: running every
   (tenant, plan) pair at once through the two-level Shard scheduler —
   stable placement, per-shard admission, the cross-tenant fairness
   gate, scan-resistant (2Q) eviction in half the cases and the
   result-cache front door in half — must give each job exactly the
   node set a serial cold run of the same plan on the same tenant store
   produces. Tenant documents and the shard count derive from the case
   seed, so every topology is reproducible from the reproducer line. *)
let check_shards case =
  let tenant_count = 2 + (case.doc_seed mod 3) in
  let shard_count = 1 + (case.doc_seed / 3 mod 3) in
  let tenants =
    List.init tenant_count (fun i ->
        ( Printf.sprintf "tenant-%d" i,
          cached_document ~doc_seed:(case.doc_seed + (7 * i)) ~fidelity:case.fidelity ))
  in
  let t =
    Shard.create ~capacity:case.physical.capacity ~policy:case.physical.policy
      ~replacement:case.physical.replacement ~strategy:case.physical.strategy
      ~page_size:case.physical.page_size ~payload:case.physical.payload ~shards:shard_count
      tenants
  in
  let config =
    {
      (context_config case) with
      Context.scan_resistant = case.doc_seed land 1 = 1;
      result_cache = case.doc_seed land 2 = 2;
    }
  in
  (* The serial replays must recompute, not echo entries the concurrent
     run installed. *)
  let serial_config = { config with Context.result_cache = false } in
  if config.Context.result_cache then Result_cache.clear ();
  let mismatches = ref [] in
  let record plan detail = mismatches := { plan; detail } :: !mismatches in
  let plans = plans_for case in
  let clients =
    Array.of_list
      (List.concat_map
         (fun (name, _) ->
           List.map
             (fun (pname, plan) ->
               [
                 {
                   Shard.tenant = name;
                   spec =
                     { Workload.label = pname; path = case.path; plan; timeout = None; ops = [] };
                 };
               ])
             plans)
         tenants)
  in
  (match Shard.run_clients ~config ~cold:true t clients with
  | r ->
    let serial =
      List.concat_map
        (fun (name, _) ->
          let store = Shard.store t name in
          List.map
            (fun (pname, plan) ->
              ( (name, pname),
                ids_of (Exec.cold_run ~config:serial_config store case.path plan).Exec.nodes ))
            plans)
        tenants
    in
    List.iter
      (fun (tenant, (job : Workload.job)) ->
        let expected = List.assoc (tenant, job.Workload.job_label) serial in
        let got = ids_of job.Workload.nodes in
        if got <> expected then
          record
            (Printf.sprintf "%s/%s" tenant job.Workload.job_label)
            (Format.asprintf "serial: %d nodes %a, sharded (%s): %d nodes %a"
               (List.length expected) pp_ids expected
               (Workload.status_to_string job.Workload.status)
               (List.length got) pp_ids got))
      r.Shard.jobs;
    if List.length r.Shard.jobs <> Array.length clients then
      record "shards"
        (Printf.sprintf "%d jobs submitted but %d reported" (Array.length clients)
           (List.length r.Shard.jobs));
    List.iter (fun msg -> record "shards" msg) r.Shard.violations;
    List.iter
      (fun (name, _) ->
        let expected = Shard.stable_shard ~shards:shard_count name in
        let got = Shard.shard_of t name in
        if got <> expected then
          record "shards"
            (Printf.sprintf "tenant %s placed on shard %d, expected %d" name got expected))
      tenants
  | exception e -> record "shards" (Printf.sprintf "raised %s" (Printexc.to_string e)));
  if config.Context.result_cache then Result_cache.clear ();
  List.rev !mismatches

(* --- index tier ----------------------------------------------------------- *)

(* The structural-index tier: index plans — covering when the path is a
   pure self/child chain, residual-seeded otherwise, plus forced partial
   resolutions down to zero — must agree with the reference evaluator
   AND with the XSchedule plan on every sampled case. Partial
   resolutions exercise the border-continuation path ({!Xnav_core.Xindex.push}):
   seeds enter the XStep tail mid-chain and crossings are served
   cluster by cluster. *)
let check_index_built ~doc ~store ~import case =
  let config = context_config case in
  let expected = expected_ids doc import case.path in
  let mismatches = ref [] in
  let record plan detail = mismatches := { plan; detail } :: !mismatches in
  let guarded plan f =
    match f () with
    | got ->
      if got <> expected then
        record plan
          (Format.asprintf "expected %d nodes %a, got %d nodes %a" (List.length expected) pp_ids
             expected (List.length got) pp_ids got)
      else begin
        match storage_clean store with
        | None -> ()
        | Some msg -> record plan msg
      end
    | exception e -> record plan (Printf.sprintf "raised %s" (Printexc.to_string e))
  in
  guarded "xschedule" (fun () ->
      ids_of
        (Exec.cold_run ~config store case.path (Plan.xschedule ~speculative:case.speculative ()))
          .Exec.nodes);
  guarded "xindex" (fun () ->
      ids_of (Exec.cold_run ~config store case.path (Plan.xindex ())).Exec.nodes);
  let exact = Path.indexable_prefix case.path in
  List.iter
    (fun k ->
      guarded
        (Printf.sprintf "xindex[resolve<=%d]" k)
        (fun () ->
          ids_of
            (Exec.cold_run ~config store case.path (Plan.xindex ~resolve:k ())).Exec.nodes))
    (List.sort_uniq compare [ 0; exact / 2; exact ]);
  List.rev !mismatches

(* --- fused tier ----------------------------------------------------------- *)

(* The fused automaton compiles the XStep chain away, but below
   XAssembly it must be observationally equivalent: running each
   fused-capable plan with the knob on and off — same store, cold —
   must produce identical result node ids, the identical physical I/O
   trace (page-by-page, in order), and identical scheduling and
   speculation counters. The knob-off run must never touch the
   automaton (zero fused counters); since the knob-on trace is checked
   equal to it, knob-off also pins the automaton to the historical
   chain regime. Swizzle counters are exempt: the automaton reads
   packed navigation words where the chain decodes full records, so
   the hit/miss split legitimately differs. [instances] is exempt for
   the same reason — the chain materialises one instance per step
   extension, the automaton only per crossing and per result. *)
let fused_plans case =
  [
    ("xschedule", Plan.xschedule ~speculative:case.speculative ());
    ("xscan", Plan.xscan ());
    ("xindex", Plan.xindex ());
    ("xindex[resolve=0]", Plan.xindex ~resolve:0 ());
  ]
  @
  if Path.starts_with_descendant_any case.path then [ ("xscan-dslash", Plan.xscan ~dslash:true ()) ]
  else []

let check_fused_built ~store case =
  let config = context_config case in
  let disk = Buffer_manager.disk (Store.buffer store) in
  let mismatches = ref [] in
  let record plan detail = mismatches := { plan; detail } :: !mismatches in
  let run_with plan fused =
    Disk.set_trace disk true;
    let r = Exec.cold_run ~config:{ config with Context.fused } store case.path plan in
    let trace = Disk.trace disk in
    Disk.set_trace disk false;
    (r, trace)
  in
  List.iter
    (fun (name, plan) ->
      match
        let on = run_with plan true in
        let off = run_with plan false in
        (on, off)
      with
      | (on, on_trace), (off, off_trace) ->
        let on_ids = ids_of on.Exec.nodes and off_ids = ids_of off.Exec.nodes in
        if on_ids <> off_ids then
          record name
            (Format.asprintf "fused: %d nodes %a, unfused: %d nodes %a" (List.length on_ids)
               pp_ids on_ids (List.length off_ids) pp_ids off_ids);
        if on_trace <> off_trace then
          record name
            (Printf.sprintf "I/O traces diverge: fused read %d pages, unfused %d"
               (List.length on_trace) (List.length off_trace));
        let mon = on.Exec.metrics and moff = off.Exec.metrics in
        List.iter
          (fun (label, proj) ->
            let a = proj mon and b = proj moff in
            if a <> b then
              record name (Printf.sprintf "%s diverges: fused %d, unfused %d" label a b))
          [
            ("page_reads", fun m -> m.Exec.page_reads);
            ("seek_distance", fun m -> m.Exec.seek_distance);
            ("q_enqueued", fun m -> m.Exec.q_enqueued);
            ("q_served", fun m -> m.Exec.q_served);
            ("clusters_visited", fun m -> m.Exec.clusters_visited);
            ("crossings", fun m -> m.Exec.crossings);
            ("specs_created", fun m -> m.Exec.specs_created);
            ("specs_resolved", fun m -> m.Exec.specs_resolved);
          ];
        if moff.Exec.fused_transitions <> 0 || moff.Exec.fused_states <> 0 then
          record name
            (Printf.sprintf "unfused run touched the automaton: %d transitions, %d states"
               moff.Exec.fused_transitions moff.Exec.fused_states)
      | exception e -> record name (Printf.sprintf "raised %s" (Printexc.to_string e)))
    (fused_plans case);
  List.rev !mismatches

(* --- cache tier ----------------------------------------------------------- *)

(* The result cache must be semantically invisible. Per plan, three cold
   runs: cache off (the historical baseline), cache on against an empty
   cache (a miss — the consult-and-install machinery must not perturb a
   single execution counter), cache on again (a hit — the same answer
   with zero I/O and zero operator work). Then level 2: every plan of
   the case at once through the workload engine with the front door on,
   which dedupes the identical statements into one shared scan — each
   job must still report exactly the serial cache-off node set. *)
let check_cache_built ~store case =
  let config = context_config case in
  let cache_on = { config with Context.result_cache = true } in
  let mismatches = ref [] in
  let record plan detail = mismatches := { plan; detail } :: !mismatches in
  List.iter
    (fun (name, plan) ->
      Result_cache.clear ();
      match
        let off = Exec.cold_run ~config store case.path plan in
        let miss = Exec.cold_run ~config:cache_on store case.path plan in
        let hit = Exec.cold_run ~config:cache_on store case.path plan in
        (off, miss, hit)
      with
      | off, miss, hit ->
        let off_ids = ids_of off.Exec.nodes in
        let miss_ids = ids_of miss.Exec.nodes in
        let hit_ids = ids_of hit.Exec.nodes in
        if miss_ids <> off_ids then
          record name
            (Format.asprintf "miss run: %d nodes %a, cache-off: %d nodes %a"
               (List.length miss_ids) pp_ids miss_ids (List.length off_ids) pp_ids off_ids);
        if hit_ids <> off_ids then
          record name
            (Format.asprintf "hit run: %d nodes %a, cache-off: %d nodes %a"
               (List.length hit_ids) pp_ids hit_ids (List.length off_ids) pp_ids off_ids);
        let moff = off.Exec.metrics and mmiss = miss.Exec.metrics and mhit = hit.Exec.metrics in
        (* The miss is the cache machinery being invisible: every
           execution counter equals the cache-off run. *)
        List.iter
          (fun (label, proj) ->
            let a = proj moff and b = proj mmiss in
            if a <> b then
              record name (Printf.sprintf "%s diverges: cache-off %d, miss %d" label a b))
          [
            ("page_reads", fun m -> m.Exec.page_reads);
            ("seek_distance", fun m -> m.Exec.seek_distance);
            ("q_enqueued", fun m -> m.Exec.q_enqueued);
            ("q_served", fun m -> m.Exec.q_served);
            ("clusters_visited", fun m -> m.Exec.clusters_visited);
            ("crossings", fun m -> m.Exec.crossings);
            ("instances", fun m -> m.Exec.instances);
            ("specs_created", fun m -> m.Exec.specs_created);
            ("specs_stored", fun m -> m.Exec.specs_stored);
            ("specs_resolved", fun m -> m.Exec.specs_resolved);
            ("fused_transitions", fun m -> m.Exec.fused_transitions);
            ("fused_states", fun m -> m.Exec.fused_states);
          ];
        if moff.Exec.cache_hits + moff.Exec.cache_misses + moff.Exec.cache_evictions > 0 then
          record name
            (Printf.sprintf "cache-off run touched the cache: hits %d misses %d evictions %d"
               moff.Exec.cache_hits moff.Exec.cache_misses moff.Exec.cache_evictions);
        if mmiss.Exec.cache_misses <> 1 || mmiss.Exec.cache_hits <> 0 then
          record name
            (Printf.sprintf "miss run counted hits %d / misses %d (want 0/1)"
               mmiss.Exec.cache_hits mmiss.Exec.cache_misses);
        if mhit.Exec.cache_hits <> 1 || mhit.Exec.cache_misses <> 0 then
          record name
            (Printf.sprintf "hit run counted hits %d / misses %d (want 1/0)" mhit.Exec.cache_hits
               mhit.Exec.cache_misses);
        if mhit.Exec.page_reads <> 0 || mhit.Exec.clusters_visited <> 0 || mhit.Exec.instances <> 0
        then
          record name
            (Printf.sprintf "hit run executed: %d reads, %d clusters, %d instances"
               mhit.Exec.page_reads mhit.Exec.clusters_visited mhit.Exec.instances)
      | exception e -> record name (Printf.sprintf "raised %s" (Printexc.to_string e)))
    (plans_for case);
  (* Level 2: identical concurrent statements share one scan. *)
  Result_cache.clear ();
  let plans = plans_for case in
  let serial =
    List.map
      (fun (name, plan) ->
        (name, ids_of (Exec.cold_run ~config store case.path plan).Exec.nodes))
      plans
  in
  let specs =
    List.map
      (fun (name, plan) ->
        { Workload.label = name; path = case.path; plan; timeout = None; ops = [] })
      plans
  in
  Result_cache.clear ();
  (match Workload.run ~config:cache_on ~cold:true store specs with
  | r ->
    List.iter
      (fun (job : Workload.job) ->
        let expected = List.assoc job.Workload.job_label serial in
        let got = ids_of job.Workload.nodes in
        if got <> expected then
          record job.Workload.job_label
            (Format.asprintf "serial: %d nodes %a, shared (%s%s): %d nodes %a"
               (List.length expected) pp_ids expected
               (Workload.status_to_string job.Workload.status)
               (if job.Workload.shared then ", follower" else "")
               (List.length got) pp_ids got))
      r.Workload.jobs;
    if List.length plans >= 2 && r.Workload.shared_jobs + r.Workload.cache_hits = 0 then
      record "workload"
        (Printf.sprintf "%d identical statements ran concurrently but none was deduped or \
                         served from cache"
           (List.length plans));
    List.iter (fun msg -> record "workload" msg) r.Workload.violations;
    (match storage_clean store with
    | None -> ()
    | Some msg -> record "workload" msg)
  | exception e -> record "workload" (Printf.sprintf "raised %s" (Printexc.to_string e)));
  Result_cache.clear ();
  List.rev !mismatches

(* --- shrinking ------------------------------------------------------------ *)

(* Move one dimension of the case toward the default / a smaller input.
   Any candidate that still fails replaces the case; iterate to a
   fixpoint under a global evaluation budget. *)
let shrink_candidates case =
  let with_path path = { case with path } in
  let drop_step i = List.filteri (fun j _ -> j <> i) case.path in
  let n = List.length case.path in
  let path_shrinks =
    if n <= 1 then [] else List.init n (fun i -> with_path (drop_step i))
  in
  let fidelity_shrinks =
    List.filter_map
      (fun f -> if f < case.fidelity then Some { case with fidelity = f } else None)
      [ 0.001; 0.002 ]
  in
  let p = case.physical in
  let d = default_physical in
  let phys_shrinks =
    List.filter_map
      (fun (differs, simplified) -> if differs then Some { case with physical = simplified } else None)
      [
        (p.strategy <> d.strategy, { p with strategy = d.strategy });
        (p.policy <> d.policy, { p with policy = d.policy });
        (p.replacement <> d.replacement, { p with replacement = d.replacement });
        (p.capacity < d.capacity, { p with capacity = d.capacity });
        (p.page_size <> d.page_size, { p with page_size = d.page_size });
        (p.payload <> d.payload, { p with payload = d.payload });
      ]
  in
  let cfg_shrinks =
    List.filter_map
      (fun (differs, simplified) -> if differs then Some simplified else None)
      [
        (case.k <> 100, { case with k = 100 });
        ((not case.speculative), { case with speculative = true });
        (case.memory_budget <> 1_000_000, { case with memory_budget = 1_000_000 });
      ]
  in
  path_shrinks @ fidelity_shrinks @ phys_shrinks @ cfg_shrinks

let shrink_with ~check ?(budget = 120) case =
  let budget = ref budget in
  let still_fails c =
    !budget > 0
    &&
    (decr budget;
     match check c with _ :: _ -> true | [] | (exception _) -> false)
  in
  let rec improve case =
    match List.find_opt still_fails (shrink_candidates case) with
    | Some simpler -> improve simpler
    | None -> case
  in
  improve case

let shrink ?budget case = shrink_with ~check:check_case ?budget case

(* --- reporting ------------------------------------------------------------ *)

let reproducer ~tier case =
  let p = case.physical in
  Printf.sprintf
    "xnav check --tier %s --doc-seed %d --fidelity %g --clustering %s --page-size %d --payload %d \
     --buffer %d --io-policy %s --replacement %s -k %d --memory-budget %d%s --path '%s'"
    tier case.doc_seed case.fidelity
    (Import.strategy_to_string p.strategy)
    p.page_size p.payload p.capacity
    (Io_scheduler.policy_to_string p.policy)
    (Buffer_manager.replacement_to_string p.replacement)
    case.k case.memory_budget
    (if case.speculative then "" else " --no-speculation")
    (Path.to_string case.path)

let pp_case ppf case =
  let p = case.physical in
  Format.fprintf ppf
    "@[<v>path:       %s@,\
     document:   XMark seed=%d fidelity=%g@,\
     clustering: %s, page %dB, payload %dB@,\
     buffer:     %d frames, %s replacement, %s I/O policy@,\
     run:        k=%d%s, memory budget %d@]"
    (Path.to_string case.path) case.doc_seed case.fidelity
    (Import.strategy_to_string p.strategy)
    p.page_size p.payload p.capacity
    (Buffer_manager.replacement_to_string p.replacement)
    (Io_scheduler.policy_to_string p.policy)
    case.k
    (if case.speculative then ", speculative" else "")
    case.memory_budget

type failure = { case : case; shrunk : case; mismatches : mismatch list }

type report = { cases_run : int; plan_runs : int; failures : failure list }

let default_seed = 20050614

(* Documents and stores are shared across this many consecutive cases
   to keep generation cost bounded; plans always run cold. *)
let paths_per_store = 8

(* The sampling loop of one tier: [check_built] evaluates a case against
   the batch's store, [runs_of] counts the plan executions it performs
   (for the report), and failing cases are shrunk under the tier's own
   one-case [check], so the printed reproducer replays the same tier. *)
let sample ~name ~check_built ~check ~runs_of ~seed ~cases ~log =
  let prng = Prng.create seed in
  let cases_run = ref 0 in
  let plan_runs = ref 0 in
  let failures = ref [] in
  while !cases_run < cases do
    let doc_seed = Prng.int prng 1_000_000 in
    let fidelity = Prng.pick prng fidelities in
    let physical = sample_physical prng in
    let doc = cached_document ~doc_seed ~fidelity in
    let store, import = build_store ~doc physical in
    let tags = Array.of_list (List.map fst (Store.tag_counts store)) in
    let batch = min paths_per_store (cases - !cases_run) in
    for _ = 1 to batch do
      let case = sample_case prng ~doc_seed ~fidelity ~physical ~tags in
      incr cases_run;
      plan_runs := !plan_runs + runs_of case;
      match check_built ~doc ~store ~import case with
      | [] -> ()
      | mismatches ->
        log
          (Format.asprintf "MISMATCH (%s): %s" (List.hd mismatches).plan
             (reproducer ~tier:name case));
        let shrunk = shrink_with ~check case in
        log (Printf.sprintf "shrunk reproducer: %s" (reproducer ~tier:name shrunk));
        failures := { case; shrunk; mismatches } :: !failures
    done;
    if !cases_run mod 40 = 0 then
      log (Printf.sprintf "%d/%d cases checked, %d failures" !cases_run cases
             (List.length !failures))
  done;
  { cases_run = !cases_run; plan_runs = !plan_runs; failures = List.rev !failures }

type tier = {
  name : string;
  sample : seed:int -> cases:int -> log:(string -> unit) -> report;
  check : case -> mismatch list;
}

(* A tier's one-case check builds the case's store, unless the tier
   builds its own ([check] given). *)
let tier ?check name ~runs_of check_built =
  let check = Option.value check ~default:(one_case check_built) in
  { name; sample = sample ~name ~check_built ~check ~runs_of; check }

let tiers =
  let plans case = List.length (plans_for case) in
  [
    tier "base" ~runs_of:(fun case -> plans case + 2) check_built;
    tier "swizzle"
      ~runs_of:(fun case -> 2 * plans case)
      (fun ~doc:_ ~store ~import:_ case -> check_swizzle_built ~store case);
    tier "batching"
      ~runs_of:(fun case -> 2 * plans case)
      (fun ~doc:_ ~store ~import:_ case -> check_batching_built ~store case);
    tier "workload"
      ~runs_of:(fun case -> 2 * plans case)
      (fun ~doc:_ ~store ~import:_ case -> check_workload_built ~store case);
    tier "writers"
      ~runs_of:(fun case -> (2 * plans case) + 2)
      (fun ~doc ~store:_ ~import case -> check_writers_built ~doc ~import case);
    tier "fused"
      ~runs_of:(fun case -> 2 * List.length (fused_plans case))
      (fun ~doc:_ ~store ~import:_ case -> check_fused_built ~store case);
    tier "shards" ~check:check_shards
      ~runs_of:(fun case -> 2 * (2 + (case.doc_seed mod 3)) * plans case)
      (fun ~doc:_ ~store:_ ~import:_ case -> check_shards case);
    tier "cache"
      ~runs_of:(fun case -> (4 * plans case) + 1)
      (fun ~doc:_ ~store ~import:_ case -> check_cache_built ~store case);
    tier "index"
      ~runs_of:(fun case ->
        3 + List.length (List.sort_uniq compare [ 0; Path.indexable_prefix case.path / 2 ]))
      check_index_built;
  ]

let find_tier name = List.find_opt (fun t -> t.name = name) tiers
