module Tree = Xnav_xml.Tree
module Axis = Xnav_xml.Axis
module Tag = Xnav_xml.Tag
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Io_scheduler = Xnav_storage.Io_scheduler
module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Path_partition = Xnav_store.Path_partition
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
module Counters = Xnav_core.Counters
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
    ("xschedule-summary", Plan.xschedule ~seeding:Plan.Summary ());
    ("xscan-summary", Plan.xscan ~seeding:Plan.Summary ());
  ]
  @
  if Path.starts_with_descendant_any case.path then
    [ ("xscan-dslash", Plan.xscan ~seeding:Plan.Dslash ()) ]
  else []

(* A workload job over [path]: a reader, or a writer with [ops]. *)
let job ?(ops = []) path (label, plan) = { Workload.label; path; plan; timeout = None; ops }

(* Each summary-seeded plan of [plans_for] and the [All] plan whose I/O
   it must reproduce: the speculative XSchedule only runs with
   [case.speculative]. *)
let summary_pairs case =
  ("xscan", "xscan-summary")
  :: (if case.speculative then [ ("xschedule", "xschedule-summary") ] else [])

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

(* Run one plan through [f]: it must return [expected] and leave the
   storage layer clean. *)
let against ~store ~expected plan f =
  let mismatch detail = { plan; detail } in
  match f () with
  | got ->
    (if got <> expected then
       [
         mismatch
           (Format.asprintf "expected %d nodes %a, got %d nodes %a" (List.length expected) pp_ids
              expected (List.length got) pp_ids got);
       ]
     else [])
    @ Option.to_list (Option.map mismatch (storage_clean store))
  | exception e -> [ mismatch (Printf.sprintf "raised %s" (Printexc.to_string e)) ]

let check_built ~doc ~store ~import case =
  let config = context_config case in
  let expected = expected_ids doc import case.path in
  let metrics = Hashtbl.create 8 in
  let runs =
    List.concat_map
      (fun (name, plan) ->
        against ~store ~expected name (fun () ->
            let r = Exec.cold_run ~config store case.path plan in
            Hashtbl.replace metrics name r.Exec.metrics;
            ids_of r.Exec.nodes))
      (plans_for case)
  in
  (* Summary seeding drops only seeds that could never complete, so
     unless a run fell back it reads the pages [All] reads and creates
     no more speculations. *)
  let summary_checks (all, summary) =
    match (Hashtbl.find_opt metrics all, Hashtbl.find_opt metrics summary) with
    | Some (a : Exec.metrics), Some (m : Exec.metrics)
      when (not a.Exec.fell_back) && not m.Exec.fell_back ->
      List.map
        (fun detail -> { plan = summary; detail })
        ((if m.Exec.page_reads <> a.Exec.page_reads then
            [ Printf.sprintf "%d page reads, %s read %d" m.Exec.page_reads all a.Exec.page_reads ]
          else [])
        @
        if m.Exec.specs_created > a.Exec.specs_created then
          [
            Printf.sprintf "%d speculations created, %s created %d" m.Exec.specs_created all
              a.Exec.specs_created;
          ]
        else [])
    | _ -> []
  in
  runs
  @ List.concat_map summary_checks (summary_pairs case)
  @ against ~store ~expected "multi" (fun () ->
        ids_of (Multi.run ~config ~cold:true store [ case.path ]).Multi.per_path.(0))

(* One case on its own: build the case's store, then run a tier's check
   against it — what a reproducer replays and shrinking re-executes. *)
let one_case check_built case =
  let doc = cached_document ~doc_seed:case.doc_seed ~fidelity:case.fidelity in
  let store, import = build_store ~doc case.physical in
  check_built ~doc ~store ~import case

let check_case = one_case check_built

(* --- knob-flip tiers -------------------------------------------------------- *)

(* A knob is invisible when flipping it keeps its promise
   ({!Context.promise}): each plan runs cold — empty pool, empty result
   cache — with the tier's knobs off, then on, on the same store, and
   the two runs must return the same node ids, the same disk trace if
   every knob promises it, and equal values in the counter rows every
   knob promises. That the off run keeps the guarded counters at 0 is
   checked by the invariant sweep inside each validated run. [after]
   adds a tier's own checks on the pair. *)
let check_flip name ?(plans = plans_for) ?(after = fun _ _ ~off:_ ~on:_ -> []) ~store case =
  let knobs = List.filter (fun (k : Context.knob) -> k.Context.tier = Some name) Context.knobs in
  let promised f = List.for_all (fun (k : Context.knob) -> f k.Context.promise) knobs in
  let same_trace = promised (fun p -> p.Context.same_trace) in
  let rows =
    List.filter
      (fun (row : Counters.row) ->
        promised (fun p -> List.mem row.Counters.name p.Context.same_rows))
      Counters.table
  in
  let config = context_config case in
  let disk = Buffer_manager.disk (Store.buffer store) in
  let run plan on =
    let config = List.fold_left (fun c (k : Context.knob) -> k.Context.set on c) config knobs in
    Result_cache.clear ();
    Disk.set_trace disk same_trace;
    let r = Exec.cold_run ~config store case.path plan in
    let trace = Disk.trace disk in
    Disk.set_trace disk false;
    (r, trace)
  in
  let show = function
    | Counters.Int i -> string_of_int i
    | Counters.Float f -> Printf.sprintf "%g" f
    | Counters.Bool b -> string_of_bool b
  in
  List.concat_map
    (fun (plan_name, plan) ->
      let mismatch detail = { plan = plan_name; detail } in
      match
        let off, off_trace = run plan false in
        let on, on_trace = run plan true in
        (off, off_trace, on, on_trace, after plan_name plan ~off ~on)
      with
      | off, off_trace, on, on_trace, extra ->
        let off_ids = ids_of off.Exec.nodes and on_ids = ids_of on.Exec.nodes in
        (if off_ids <> on_ids then
           [
             mismatch
               (Format.asprintf "%s off: %d nodes %a, on: %d nodes %a" name
                  (List.length off_ids) pp_ids off_ids (List.length on_ids) pp_ids on_ids);
           ]
         else [])
        @ (if off_trace <> on_trace then
             [
               mismatch
                 (Printf.sprintf "I/O traces diverge: %s off read %d pages, on %d" name
                    (List.length off_trace) (List.length on_trace));
             ]
           else [])
        @ List.filter_map
            (fun (row : Counters.row) ->
              let a = Counters.value row off.Exec.metrics in
              let b = Counters.value row on.Exec.metrics in
              if a = b then None
              else
                Some
                  (mismatch
                     (Printf.sprintf "%s diverges: %s off %s, on %s" row.Counters.name name (show a)
                        (show b))))
            rows
        @ extra
      | exception e -> [ mismatch (Printf.sprintf "raised %s" (Printexc.to_string e)) ])
    (plans case)

(* The fused automaton replaces the step chain, which Simple plans do
   not have; index plans at full and zero resolution do. *)
let fused_plans case =
  List.filter
    (fun (_, plan) -> match plan with Plan.Simple _ -> false | Plan.Reordered _ -> true)
    (plans_for case)
  @ [ ("xindex", Plan.xindex ()); ("xindex[resolve=0]", Plan.xindex ~resolve:0 ()) ]

(* --- workload tier -------------------------------------------------------- *)

(* Concurrency must be invisible in the answers: running every plan of
   the case at once through the workload engine — admission control,
   interleaved streams, cross-query coalescing, Buffer_full recovery and
   all — must give each query exactly the node set of its serial cold
   run ([serial]), one job per plan, with no violations and a clean storage
   layer. The sampled capacities go down to 1, which exercises the
   degenerate serialising admission path. [extra] adds a caller's checks
   on the engine's result. *)
let check_concurrent ~config ?(extra = fun _ -> []) ~serial ~store case =
  let plans = plans_for case in
  let specs = List.map (job case.path) plans in
  let mismatch plan detail = { plan; detail } in
  match Workload.run ~config ~cold:true store specs with
  | r ->
    List.filter_map
      (fun (job : Workload.job) ->
        let got = ids_of job.Workload.nodes in
        match List.assoc_opt job.Workload.job_label serial with
        | Some expected when got <> expected ->
          Some
            (mismatch job.Workload.job_label
               (Format.asprintf "serial: %d nodes %a, concurrent (%s%s): %d nodes %a"
                  (List.length expected) pp_ids expected
                  (Workload.status_to_string job.Workload.status)
                  (if job.Workload.metrics.shared_demand > 0 then ", follower" else "")
                  (List.length got) pp_ids got))
        | _ -> None)
      r.Workload.jobs
    @ (if List.length r.Workload.jobs <> List.length plans then
         [
           mismatch "workload"
             (Printf.sprintf "%d queries submitted but %d jobs reported" (List.length plans)
                (List.length r.Workload.jobs));
         ]
       else [])
    @ List.map (mismatch "workload") r.Workload.violations
    @ Option.to_list (Option.map (mismatch "workload") (storage_clean store))
    @ extra r
  | exception e -> [ mismatch "workload" (Printf.sprintf "raised %s" (Printexc.to_string e)) ]

let check_workload_built ~store case =
  let config = context_config case in
  let serial =
    List.map
      (fun (name, plan) ->
        (name, ids_of (Exec.cold_run ~config store case.path plan).Exec.nodes))
      (plans_for case)
  in
  check_concurrent ~config ~serial ~store case

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

(* One concurrent schedule: [specs] (readers and writers) run as
   single-job clients on [store], in this order, then the serial replay
   on [twin] must give each reader its answer at its finish point, and
   end in the same document and path partition. *)
let check_schedule ~config ~store ~twin ~path specs record =
  let clients = Array.of_list (List.map (fun s -> [ s ]) specs) in
  match Workload.run_clients ~config ~cold:true store clients with
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
          List.exists
            (fun (s : Workload.spec) ->
              s.Workload.ops = [] && s.Workload.label = j.Workload.job_label)
            specs)
        r.Workload.jobs
    in
    List.iter
      (fun (j : Workload.job) ->
        match advance_to j.Workload.finish_commit with
        | () ->
          let expected =
            ids_of (Exec.run ~config ~ordered:false twin path Plan.simple).Exec.nodes
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
    (* Drain the rest of the log and compare the final documents, then
       the summary's live counts against navigation on the replay. *)
    (match advance_to r.Workload.writer_commits with
    | () -> (
      if not (fingerprint_equal (fingerprint ~config store) (fingerprint ~config twin)) then
        record "writers" "final documents diverge between the concurrent store and the replay";
      if not (Path_partition.equal (Store.partition store) (Store.partition twin)) then
        record "writers" "path partitions diverge between the concurrent store and the replay";
      if Path.is_downward path && Path.length path <= Path_partition.max_steps then
        Array.iteri
          (fun i counted ->
            let prefix = Path.prefix path (i + 1) in
            let navigated = (Exec.run ~config ~ordered:false twin prefix Plan.simple).Exec.count in
            if counted <> navigated then
              record "writers"
                (Printf.sprintf "summary counts %d nodes for %s, the replay's Simple plan %d"
                   counted (Path.to_string prefix) navigated))
          (Path_partition.step_counts (Store.partition store) path))
    | exception e -> record "writers" (Printf.sprintf "final replay raised %s" (Printexc.to_string e)))
  | exception e -> record "writers" (Printf.sprintf "raised %s" (Printexc.to_string e))

(* The wide family: a commit in the middle of an index stream. The root
   has 600 to 899 [b] children (every fifth with an [x] child), so an
   xindex reader over [/child::b] needs three or more 256-result turns.
   It and a writer whose first op inserts a [b] under the root are the
   first two clients, and the pool has at least 8 frames, so both are
   admitted together and the insert commits while the reader streams. *)
let check_wide_family prng ~config case record =
  let b = Tag.of_string "b" in
  let doc =
    Tree.make (Tag.of_string "r")
      (List.init
         (600 + Prng.int prng 300)
         (fun i -> Tree.make b (if i mod 5 = 4 then [ Tree.leaf (Tag.of_string "x") ] else [])))
  in
  let physical = { case.physical with capacity = max 8 case.physical.capacity } in
  let store, import = build_store ~doc physical in
  let twin, _ = build_store ~doc physical in
  let path = [ Path.step Axis.Child (Path.Name b) ] in
  let ops =
    Workload.Insert_child { parent = Store.root store; tag = b }
    :: sample_ops prng import [| b; Tag.of_string "x" |]
  in
  let index = job path ("xindex", Plan.xindex ()) in
  let writer = job ~ops path ("writer-wide", Plan.simple) in
  check_schedule ~config ~store ~twin ~path
    (index :: writer :: List.map (job path) (plans_for { case with path }))
    record

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
        job ~ops:(sample_ops prng import tags) case.path
          (Printf.sprintf "writer-%d" i, Plan.simple))
  in
  let readers =
    List.map (job case.path)
      (plans_for case @ if Path.is_downward case.path then [ ("xindex", Plan.xindex ()) ] else [])
  in
  check_schedule ~config ~store ~twin ~path:case.path (readers @ writers) record;
  if Prng.int prng 3 = 0 then check_wide_family prng ~config case record;
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
               [ { Shard.tenant = name; spec = job case.path (pname, plan) } ])
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
   resolutions exercise the border-continuation path (XIndex's [push]):
   seeds enter the XStep tail mid-chain and crossings are served
   cluster by cluster. *)
let check_index_built ~doc ~store ~import case =
  let config = context_config case in
  let expected = expected_ids doc import case.path in
  let exact = Path.indexable_prefix case.path in
  List.concat_map
    (fun (name, plan) ->
      against ~store ~expected name (fun () ->
          ids_of (Exec.cold_run ~config store case.path plan).Exec.nodes))
    ([ ("xschedule", Plan.xschedule ~speculative:case.speculative ()); ("xindex", Plan.xindex ()) ]
    @ List.map
        (fun k -> (Printf.sprintf "xindex[resolve<=%d]" k, Plan.xindex ~resolve:k ()))
        (List.sort_uniq compare [ 0; exact / 2; exact ]))

(* --- cache tier ----------------------------------------------------------- *)

(* The result cache must be semantically invisible. The flip runs each
   plan cache off, then cache on against an empty cache: a miss, whose
   consult-and-install machinery must not perturb a single execution
   counter. A third run is a hit: the same answer with zero I/O and
   zero operator work. Then level 2: every plan of the case at once
   through the workload engine with the front door on, which dedupes
   the identical statements into one shared scan — each job must still
   report exactly the cache-off node set. *)
let check_cache_built ~store case =
  let cache_on = { (context_config case) with Context.result_cache = true } in
  let serial = ref [] in
  let hit_run name plan ~off ~on =
    let off_ids = ids_of off.Exec.nodes in
    serial := (name, off_ids) :: !serial;
    let miss = on.Exec.metrics in
    let hit = Exec.cold_run ~config:cache_on store case.path plan in
    let m = hit.Exec.metrics and hit_ids = ids_of hit.Exec.nodes in
    let check ok detail = if ok then [] else [ { plan = name; detail = Lazy.force detail } ] in
    check (miss.Exec.cache_misses = 1 && miss.Exec.cache_hits = 0)
      (lazy
        (Printf.sprintf "miss run counted hits %d / misses %d (want 0/1)" miss.Exec.cache_hits
           miss.Exec.cache_misses))
    @ check (hit_ids = off_ids)
        (lazy
          (Format.asprintf "hit run: %d nodes %a, cache-off: %d nodes %a" (List.length hit_ids)
             pp_ids hit_ids (List.length off_ids) pp_ids off_ids))
    @ check (m.Exec.cache_hits = 1 && m.Exec.cache_misses = 0)
        (lazy
          (Printf.sprintf "hit run counted hits %d / misses %d (want 1/0)" m.Exec.cache_hits
             m.Exec.cache_misses))
    @ check (m.Exec.page_reads + m.Exec.clusters_visited + m.Exec.instances = 0)
        (lazy
          (Printf.sprintf "hit run executed: %d reads, %d clusters, %d instances"
             m.Exec.page_reads m.Exec.clusters_visited m.Exec.instances))
  in
  let flips = check_flip "cache" ~after:hit_run ~store case in
  (* Level 2: identical concurrent statements share one scan. *)
  Result_cache.clear ();
  let shared (r : Workload.result) =
    let n = List.length (plans_for case) in
    if n >= 2 && r.Workload.shared_jobs + r.Workload.metrics.cache_hits = 0 then
      [
        {
          plan = "workload";
          detail =
            Printf.sprintf
              "%d identical statements ran concurrently but none was deduped or served from cache"
              n;
        };
      ]
    else []
  in
  let level2 = check_concurrent ~config:cache_on ~extra:shared ~serial:!serial ~store case in
  Result_cache.clear ();
  flips @ level2

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

type report = { cases_run : int; failures : failure list }

let default_seed = 20050614

(* Documents and stores are shared across this many consecutive cases
   to keep generation cost bounded; plans always run cold. *)
let paths_per_store = 8

(* The sampling loop of one tier: [check_built] evaluates a case against
   the batch's store, and failing cases are shrunk under the tier's own
   one-case [check], so the printed reproducer replays the same tier. *)
let sample ~name ~check_built ~check ~seed ~cases ~log =
  let prng = Prng.create seed in
  let cases_run = ref 0 in
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
  { cases_run = !cases_run; failures = List.rev !failures }

type tier = {
  name : string;
  sample : seed:int -> cases:int -> log:(string -> unit) -> report;
  check : case -> mismatch list;
}

(* A tier's one-case check builds the case's store, unless the tier
   builds its own ([check] given). *)
let tier ?check name check_built =
  let check = Option.value check ~default:(one_case check_built) in
  { name; sample = sample ~name ~check_built ~check; check }

(* A tier that only flips the knobs of {!Context.knobs} naming it. *)
let flip_tier ?plans name =
  tier name (fun ~doc:_ ~store ~import:_ case -> check_flip name ?plans ~store case)

let tiers =
  [
    tier "base" check_built;
    flip_tier "swizzle";
    flip_tier "batching";
    tier "workload" (fun ~doc:_ ~store ~import:_ case -> check_workload_built ~store case);
    tier "writers" (fun ~doc ~store:_ ~import case -> check_writers_built ~doc ~import case);
    flip_tier "fused" ~plans:fused_plans;
    tier "shards" ~check:check_shards (fun ~doc:_ ~store:_ ~import:_ case -> check_shards case);
    tier "cache" (fun ~doc:_ ~store ~import:_ case -> check_cache_built ~store case);
    tier "index" check_index_built;
  ]

let find_tier name = List.find_opt (fun t -> t.name = name) tiers
