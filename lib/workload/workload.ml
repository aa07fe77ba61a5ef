module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Io_scheduler = Xnav_storage.Io_scheduler
module Path = Xnav_xpath.Path
module Context = Xnav_core.Context
module Plan = Xnav_core.Plan
module Exec = Xnav_core.Exec
module Counters = Xnav_core.Counters
module Result_cache = Xnav_core.Result_cache
module Vec = Xnav_core.Vec
module Update = Xnav_store.Update
module Node_record = Xnav_store.Node_record

type update_op =
  | Insert_child of { parent : Node_id.t; tag : Xnav_xml.Tag.t }
  | Delete_subtree of Node_id.t

type spec = {
  label : string;
  path : Xnav_xpath.Path.t;
  plan : Plan.t;
  timeout : float option;
  ops : update_op list;
}

type status = Completed | Timed_out | Recovered

let status_to_string = function
  | Completed -> "completed"
  | Timed_out -> "timed-out"
  | Recovered -> "recovered"

type job = {
  job_label : string;
  client : int;
  status : status;
  nodes : Store.info list;
  count : int;
  submitted : float;
  started : float;
  finished : float;
  latency : float;
  served_ticks : int;
  starved_ticks : int;
  yields : int;
  boosts : int;
  writer_commits : int;
  snapshot_retries : int;
  finish_commit : int;
  metrics : Exec.metrics;
}

type result = {
  jobs : job list;
  io_time : float;
  page_reads : int;
  max_concurrent : int;
  turns : int;
  shared_jobs : int;
  writer_commits : int;
  latch_waits : int;
  snapshot_retries : int;
  commit_log : update_op list;
  violations : string list;
  metrics : Exec.metrics;
}

type pool_stat = { pool_metrics : Exec.metrics; pool_turns : int }

type topology_run = {
  result : result;
  site_jobs : (int * job) list;
  pools : pool_stat array;
  rebalance_moves : int;
}

(* A lane is one admitted job: a reader's stream, a writer's op queue,
   or (never entering a pool's active list) a cache hit or a follower.
   [site] is the lane's store; [pool] the pool that store lives on — all
   of the lane's I/O, clock readings and admission happen there. *)
type lane = {
  spec : spec;
  client : int;
  site : int;
  store : Store.t;
  pool : int;
  submitted_at : float;
  started_at : float;
  mutable stream : Exec.stream option;  (* [None] for cache hits, followers and writers *)
  mutable counters : Exec.metrics;
      (* The current attempt's: the stream context's record, so the
         operators and the engine bump the same one. *)
  mutable spent : Exec.metrics option;  (* abandoned attempts and the serial recompute *)
  mutable followers : lane list;
  mutable nodes : Store.info Vec.t;  (* arrival order, duplicates included *)
  mutable sorted : Store.info list option;
      (* the answer already in document order — set when it came from
         the result cache or a shared scan, so serving a repeat is a
         pointer copy, not a per-job copy-and-sort *)
  mutable yields : int;
  mutable boosts : int;
  mutable status : status;
  mutable done_at : float;
  (* Snapshot machinery (readers): [touched] is the live touch log of
     the current stream — every cluster it has observed; [snapshot] the
     mutation stamp the stream started under. *)
  touched : (int, unit) Hashtbl.t;
  mutable snapshot : int;
  (* Writer machinery: the two-phase op queue — [armed] holds the op
     latched last turn (plus the pids latched for it), committed next
     turn. *)
  mutable pending_ops : update_op list;
  mutable armed : (update_op * int list) option;
  (* Commit-schedule position: how many writer commits (engine-wide)
     preceded this job's completion — the serial-replay point at which
     this job's answer must be reproducible. *)
  mutable finish_commit : int;
}

(* The run state of one workload: what every phase below reads and
   moves. Per pool: its waiting queue, active lanes (in rotation order),
   round-robin cursor and granted turns. Per site: the turn it was last
   served or admitted at (arrival resets its aging). Writers: [latches]
   maps a cluster pid to the client holding it exclusively (readers are
   latch-free — snapshots protect them); [commits] stamps the serial
   order of commits and [commit_log] holds the committed ops, newest
   first, so a differential harness can replay the schedule serially. *)
type engine = {
  config : Context.config;
  quantum : float;
  ordered : bool;
  pools : Buffer_manager.t array;
  sites : (Store.t * int) array;
  snaps : Exec.snapshot array;
  remaining : (int * spec) list array;  (* each closed-loop client's unsubmitted jobs *)
  waiting : (int * int * spec * float) Queue.t array;  (* client, site, spec, submitted *)
  active : lane list array;
  rr : int array;
  granted : int array;
  last_served : int array;
  latches : (int, int) Hashtbl.t;
  mutable commits : int;
  mutable commit_log : update_op list;
  mutable finished : lane list;  (* newest first *)
  mutable max_concurrent : int;
  mutable turns : int;
  mutable grr : int;  (* the balancer's round-robin cursor over pools *)
  mutable rebalance_moves : int;
}

(* Worst-case steady pin demand per admitted query: one held frame
   (XSchedule's current cluster; Simple/XScan navigation pins are
   transient, released before the stream yields) plus one frame of
   headroom for the page being entered. Release-before-acquire inside
   each operator means a query never needs both at once for itself, but
   a crossing momentarily touches the next cluster while the batch
   installer may hold completion-queue pins — two frames per query is
   the bound under which no schedule can wedge the pool. Followers and
   cache hits pin nothing and are exempt from admission. *)
let demand_frames = 2

(* Serve one cost credit for at most this many results: the cap keeps
   rotation alive for queries that are momentarily free (every page
   resident advances no simulated time at all). *)
let step_cap = 256

let percentile xs p =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    List.nth sorted (min (n - 1) (max 0 (rank - 1)))

let now st p = Disk.elapsed (Buffer_manager.disk st.pools.(p))

(* The front door: both levels — result-cache consultation at admission
   and cross-client shared-scan dedup — ride the one knob, so knob-off
   reproduces the historical engine exactly. *)
let front_door st = st.config.Context.result_cache

let total_active st = Array.fold_left (fun a l -> a + List.length l) 0 st.active

let fold_spent lane m =
  lane.spent <- Some (match lane.spent with None -> m | Some s -> Counters.add s m)

(* --- submit and admit ------------------------------------------------------ *)

(* Closed-loop clients: a client's next job is submitted the moment the
   previous finishes, and queues at its site's pool. *)
let submit st client =
  match st.remaining.(client) with
  | [] -> ()
  | (site, spec) :: rest ->
    st.remaining.(client) <- rest;
    let pool = snd st.sites.(site) in
    Queue.add (client, site, spec, now st pool) st.waiting.(pool)

let make_lane st ~client ~site ~spec ~submitted_at ~stream =
  let store, pool = st.sites.(site) in
  {
    spec;
    client;
    site;
    store;
    pool;
    submitted_at;
    started_at = now st pool;
    stream;
    counters =
      (match stream with
      | Some s -> (Exec.stream_ctx s).Context.counters
      | None -> Counters.create ());
    spent = None;
    followers = [];
    nodes = Vec.create ();
    sorted = None;
    yields = 0;
    boosts = 0;
    status = Completed;
    done_at = 0.0;
    touched = Hashtbl.create 16;
    snapshot = Store.mutation_stamp store;
    pending_ops = spec.ops;
    armed = None;
    finish_commit = 0;
  }

(* Install a completed stream job's answer for the next identical
   statement. Streams always run from the root context, so every
   completed job is cacheable. Entries key on the store's uid, so
   co-located sites never alias. *)
let cache_fill st lane =
  if front_door st then begin
    let nodes = Exec.answer ~ordered:true lane.nodes in
    lane.sorted <- Some nodes;
    (* The footprint is every pid the final stream observed. *)
    Result_cache.install lane.counters lane.store (Path.to_string lane.spec.path)
      ~touched:lane.touched nodes
  end

(* Record a job's end: its status, clock reading and commit position. *)
let close st lane status =
  lane.status <- status;
  lane.done_at <- now st lane.pool;
  lane.finish_commit <- st.commits;
  st.finished <- lane :: st.finished

let finish st lane status =
  st.active.(lane.pool) <- List.filter (fun l -> l != lane) st.active.(lane.pool);
  close st lane status;
  (match (status, lane.stream) with Completed, Some _ -> cache_fill st lane | _ -> ());
  (* A completed shared scan answers every follower at the same
     instant; a recovered one sends them to the same serial recompute
     (where the leader's recomputed answer is already cached). Only a
     front-door stream job leads, so a completed leader has just run
     [cache_fill] and its [sorted] answer is set. *)
  List.iter
    (fun f ->
      if status = Completed then f.sorted <- lane.sorted;
      close st f status;
      submit st f.client)
    lane.followers;
  lane.followers <- [];
  (* Without [validate], nothing reads a finished lane's execution
     state again: release the pipeline, the touch log and, once the
     answer is held in document order, the arrival buffer. The
     end-of-run [validate] sweep needs every stream, and only once all
     pools are quiescent: swept here, one lane would report another's
     pins. *)
  if not st.config.Context.validate then begin
    lane.stream <- None;
    Hashtbl.reset lane.touched;
    if lane.sorted <> None then lane.nodes <- Vec.create ()
  end;
  submit st lane.client

(* Shared-scan dedup (level 2): an identical statement on the same
   store already in flight means this job's cluster demand is a subset
   of work the pool is about to do anyway — attach it as a follower
   instead of issuing a second scan. Deadline-carrying jobs keep their
   own lane (a follower's fate is its leader's). *)
let find_leader st site spec =
  if (not (front_door st)) || spec.timeout <> None then None
  else
    let key = Path.to_string spec.path in
    List.find_opt
      (fun l ->
        l.site = site && l.stream <> None && l.spec.timeout = None
        && Path.to_string l.spec.path = key)
      st.active.(snd st.sites.(site))

(* Admit from pool [p]'s queue in arrival order: a follower or a cache
   hit costs no lane slot; anything else takes one while the pool has
   headroom. *)
let admit st p =
  let q = st.waiting.(p) in
  let capacity = Buffer_manager.capacity st.pools.(p) in
  let stop = ref false in
  while (not !stop) && not (Queue.is_empty q) do
    let client, site, spec, submitted_at = Queue.peek q in
    let lane stream = make_lane st ~client ~site ~spec ~submitted_at ~stream in
    let store = fst st.sites.(site) in
    (* Writers skip the front door: a writer produces no statement
       answer to cache or share. *)
    let reader = spec.ops = [] in
    match if reader then find_leader st site spec else None with
    | Some leader ->
      ignore (Queue.pop q);
      let f = lane None in
      f.counters.Counters.shared_demand <- 1;
      leader.followers <- f :: leader.followers
    | None -> (
      match
        if reader && front_door st then Result_cache.find store (Path.to_string spec.path)
        else None
      with
      | Some entry ->
        (* Level 1 hit: the job completes at admission, no lane slot,
           no planning, no I/O. *)
        ignore (Queue.pop q);
        let hit = lane None in
        hit.counters.Counters.cache_hits <- 1;
        hit.sorted <- Some (Result_cache.nodes entry);
        finish st hit Completed
      | None ->
        let n = List.length st.active.(p) in
        (* Alone is always admissible — the single-query engine makes
           progress on any pool down to one frame (and recovers through
           the fallback restart if it cannot). Company needs headroom;
           each pool only absorbs its own lanes' pin demand. A writer's
           transient fix/unfix pattern fits the same bound. *)
        if n = 0 || demand_frames * (n + 1) <= capacity then begin
          ignore (Queue.pop q);
          match
            if reader then Some (Exec.prepare ~config:st.config store spec.path spec.plan) else None
          with
          | stream ->
            st.active.(p) <- st.active.(p) @ [ lane stream ];
            st.last_served.(site) <- max st.last_served.(site) st.turns;
            st.max_concurrent <- max st.max_concurrent (total_active st)
          | exception Buffer_manager.Buffer_full ->
            (* A Simple plan reads its context node while preparing; with
               batch installs overcommitting the pool, other lanes' pins
               can leave no frame for it. Recover the job serially, like
               a stream that wedges later. *)
            finish st (lane None) Recovered
        end
        else stop := true)
  done

(* --- expire ------------------------------------------------------------------ *)

(* Deadlines, each on the owning pool's clock, before the turn is given
   out: a timed-out query unwinds through abort_async and its client
   moves on to its next job. *)
let expire st =
  Array.iteri
    (fun p lanes ->
      let t = now st p in
      List.iter
        (fun lane ->
          match (lane.spec.timeout, lane.stream) with
          | Some dt, Some stream when t -. lane.started_at >= dt ->
            Exec.stream_abandon stream;
            finish st lane Timed_out
          | _ -> ())
        lanes)
    st.active

(* --- pick -------------------------------------------------------------------- *)

(* A query is boosted when some cluster it has queued demand for is
   already cheap on its pool: resident, inside another co-resident
   query's open scan window, or part of a coalescible pending run.
   Serving it now converts another query's work (or the scheduler's
   batching) into this query's progress. *)
let boosted st p lanes lane =
  match lane.stream with
  | None -> false
  | Some stream -> (
    match Exec.stream_demand stream with
    | [] -> false
    | demand ->
      let buffer = st.pools.(p) in
      let sched = Buffer_manager.scheduler buffer in
      let windows =
        List.filter_map
          (fun l -> if l == lane then None else Option.bind l.stream Exec.stream_scan_window)
          lanes
      in
      List.exists
        (fun pid ->
          Buffer_manager.resident buffer pid
          || Io_scheduler.is_pending sched pid
             && (Io_scheduler.is_pending sched (pid - 1)
                || Io_scheduler.is_pending sched (pid + 1))
          || List.exists (fun (lo, hi) -> pid >= lo && pid <= hi) windows)
        demand)

(* Choose this turn's lane, or [None] when no pool has one, and charge
   the turn's fairness ticks. Level 2, the balancer: round-robin over
   pools with runnable lanes — unless a site's pressure (turns unserved)
   exceeds the gate, in which case that site is served directly wherever
   it lives. The window scales with the load: under n active lanes a
   fair rotation serves each about every n turns, so 2n + 4 flags a
   genuinely starved site, not a slow rotation. A lone site is served or
   admitted every turn, so its pressure never passes 1 and the gate
   never fires. Level 1, within the chosen pool: round-robin rotation
   with the cheap-demand boost override. *)
let pick st =
  match List.filter (fun p -> st.active.(p) <> []) (List.init (Array.length st.pools) Fun.id) with
  | [] -> None
  | cands ->
    st.turns <- st.turns + 1;
    let default_pool = List.nth cands (st.grr mod List.length cands) in
    st.grr <- st.grr + 1;
    let threshold = (2 * total_active st) + 4 in
    let worst =
      Array.fold_left
        (List.fold_left (fun w l ->
             let pressure = st.turns - st.last_served.(l.site) in
             match w with
             | Some (wp, ws) when wp > pressure || (wp = pressure && ws <= l.site) -> w
             | _ -> Some (pressure, l.site)))
        None st.active
    in
    let focus =
      match worst with Some (pressure, site) when pressure > threshold -> Some site | _ -> None
    in
    let p = match focus with Some site -> snd st.sites.(site) | None -> default_pool in
    st.granted.(p) <- st.granted.(p) + 1;
    let lanes = st.active.(p) in
    let kk = st.rr.(p) mod List.length lanes in
    st.rr.(p) <- st.rr.(p) + 1;
    let rotated =
      List.filteri (fun i _ -> i >= kk) lanes @ List.filteri (fun i _ -> i < kk) lanes
    in
    let head = List.hd rotated in
    let default_pick =
      match List.filter (boosted st p lanes) rotated with [] -> head | b :: _ -> b
    in
    let pick =
      match Option.bind focus (fun site -> List.find_opt (fun l -> l.site = site) rotated) with
      | Some l ->
        if l != default_pick then st.rebalance_moves <- st.rebalance_moves + 1;
        l
      | None -> default_pick
    in
    if pick != head && pick == default_pick then pick.boosts <- pick.boosts + 1;
    (* Fairness credits are charged to every sharer: a follower is being
       served whenever its leader's scan advances. *)
    List.iter
      (fun l -> l.counters.Counters.served_ticks <- l.counters.Counters.served_ticks + 1)
      (pick :: pick.followers);
    st.last_served.(pick.site) <- st.turns;
    (* Starvation is engine-wide: every other runnable lane, on any pool,
       waited this turn — that keeps served/starved ratios comparable
       across sites, which is what the gate protects. *)
    Array.iter
      (List.iter (fun l ->
           if l != pick then
             l.counters.Counters.starved_ticks <- l.counters.Counters.starved_ticks + 1))
      st.active;
    Some pick

(* --- serve_reader ------------------------------------------------------------ *)

(* Snapshot rule: a stream is valid while no writer has committed into a
   cluster the stream has already observed ([touched]). Commits are
   atomic within a writer's turn, so checking once at the top of each
   reader turn suffices — the stream cannot observe a half-applied op.
   Page stamps never exceed the store's mutation counter, so the fold
   only runs once something has committed since the snapshot. An index
   plan's stream (never degraded: streams run from the root) read its
   seeds from the partition's entry lists when it was built, not from
   pages, so no footprint covers a write that changes them: as for
   {!Result_cache}'s footprint-less entries, any commit since the
   snapshot conflicts. *)
let conflicted lane =
  Store.mutation_stamp lane.store > lane.snapshot
  && ((match lane.spec.plan with Plan.Reordered { io = Plan.Io_index _; _ } -> true | _ -> false)
     || Hashtbl.fold
          (fun pid () acc -> acc || Store.page_stamp lane.store pid > lane.snapshot)
          lane.touched false)

(* On conflict the stream restarts from scratch under a fresh stamp. The
   abandoned attempt's counters, its retry counted, join the job's. *)
let restart st lane stream =
  Exec.stream_abandon stream;
  let c = lane.counters in
  c.Counters.snapshot_retries <- c.Counters.snapshot_retries + 1;
  Vec.clear lane.nodes;
  Hashtbl.reset lane.touched;
  match Exec.prepare ~config:st.config lane.store lane.spec.path lane.spec.plan with
  | s ->
    fold_spent lane c;
    lane.stream <- Some s;
    lane.counters <- (Exec.stream_ctx s).Context.counters;
    lane.snapshot <- Store.mutation_stamp lane.store;
    Some s
  | exception Buffer_manager.Buffer_full ->
    finish st lane Recovered;
    None

(* Serve one cost credit: run until the quantum's worth of simulated
   time is spent, a random I/O fires (yield immediately — cheaper work
   can run while the head repositions), the step cap is reached, the
   stream ends, or the pool is exhausted (tear down, recompute serially
   later). *)
let serve_reader st lane stream =
  let p = lane.pool in
  let disk = Buffer_manager.disk st.pools.(p) in
  let saved = Store.swap_touch_log lane.store (Some lane.touched) in
  let stream = if conflicted lane then restart st lane stream else Some stream in
  Option.iter
    (fun stream ->
      let start = now st p in
      let rec go steps =
        let rnd0 = (Disk.stats disk).Disk.random_reads in
        match Exec.stream_next stream with
        | None -> finish st lane Completed
        | Some info ->
          Vec.push lane.nodes info;
          if (Disk.stats disk).Disk.random_reads > rnd0 then lane.yields <- lane.yields + 1
          else if now st p -. start < st.quantum && steps + 1 < step_cap then go (steps + 1)
        | exception Buffer_manager.Buffer_full ->
          (* The pool is exhausted under contention (or this lane wedged
             post-fallback). Unwind its async state and recompute the
             answer with the Simple plan once everything has drained. *)
          Exec.stream_abandon stream;
          finish st lane Recovered
      in
      go 0)
    stream;
  ignore (Store.swap_touch_log lane.store saved)

(* --- serve_writer ------------------------------------------------------------ *)

(* Writers are two-phase, one phase per turn. Acquire turn: latch the
   op's target cluster (exclusive against other writers; blocked →
   count a latch wait, retry next turn) and validate the target still
   exists — a concurrent delete may have removed it, in which case the
   op is skipped. Commit turn: apply the op atomically (the whole
   surgery inside one turn — readers between turns never see a partial
   op), log it, and stale exactly the result-cache entries whose
   footprint the write set intersects. Clusters an op escalates into
   mid-commit (overflow pages, purged subtree clusters) are not
   latched: the latch protocol orders writer-writer conflicts on the
   declared target, while the commit's validation probe plus the
   op-skip catch keep races through escalation safe — a skipped op is
   excluded from the commit log, so serial replay agrees. *)
let target = function Insert_child { parent; _ } -> parent | Delete_subtree victim -> victim

let op_valid store op =
  match Store.read store (target op) with
  | Node_record.Core c -> (
    match op with Insert_child _ -> true | Delete_subtree _ -> c.parent <> None)
  | _ | (exception (Failure _ | Invalid_argument _)) -> false

(* Apply one op; [false] when it raised one of the failures {!Update}
   documents or ran out of frames: the op is skipped. Anything else is
   an engine or store bug and propagates. *)
let apply store op =
  match
    match op with
    | Insert_child { parent; tag } -> ignore (Update.insert_element store ~parent tag)
    | Delete_subtree victim -> ignore (Update.delete_subtree store victim)
  with
  | () -> true
  | exception
      ( Update.No_room_for_border _ | Invalid_argument _ | Failure _
      | Buffer_manager.Buffer_full ) ->
    false

let serve_writer st lane =
  let store = lane.store in
  let c = lane.counters in
  match lane.armed with
  | Some (op, held) ->
    let write_set = Hashtbl.create 8 in
    let saved = Store.swap_write_log store (Some write_set) in
    let committed = apply store op in
    ignore (Store.swap_write_log store saved);
    List.iter (fun pid -> Hashtbl.remove st.latches pid) held;
    lane.armed <- None;
    if committed then begin
      c.Counters.writer_commits <- c.Counters.writer_commits + 1;
      st.commits <- st.commits + 1;
      st.commit_log <- op :: st.commit_log;
      if front_door st then begin
        let ws = Hashtbl.fold (fun pid () acc -> pid :: acc) write_set [] in
        let staled = Result_cache.stale_clusters store (Array.of_list ws) in
        c.Counters.cluster_stales <- c.Counters.cluster_stales + staled
      end
    end;
    if lane.pending_ops = [] then finish st lane Completed
  | None -> (
    match lane.pending_ops with
    | [] -> finish st lane Completed
    | op :: rest -> (
      let targets = [ (target op).Node_id.pid ] in
      let blocked =
        List.exists
          (fun pid ->
            match Hashtbl.find_opt st.latches pid with
            | Some owner -> owner <> lane.client
            | None -> false)
          targets
      in
      if blocked then c.Counters.latch_waits <- c.Counters.latch_waits + 1
      else begin
        List.iter (fun pid -> Hashtbl.replace st.latches pid lane.client) targets;
        match op_valid store op with
        | true ->
          lane.armed <- Some (op, targets);
          lane.pending_ops <- rest
        | false ->
          List.iter (fun pid -> Hashtbl.remove st.latches pid) targets;
          lane.pending_ops <- rest;
          if rest = [] then finish st lane Completed
        | exception Buffer_manager.Buffer_full ->
          (* Pool too tight even for the validation probe: release and
             retry the same op next turn. *)
          List.iter (fun pid -> Hashtbl.remove st.latches pid) targets;
          lane.yields <- lane.yields + 1
      end))

let serve st lane =
  if lane.spec.ops <> [] then serve_writer st lane
  else Option.iter (serve_reader st lane) lane.stream

(* --- recover, sweep, report -------------------------------------------------- *)

(* Pools are quiescent now: recompute abandoned queries serially with
   the Simple plan (the paper's fallback answer path), charging the
   recompute's simulated time to the job on its own pool's clock and
   its counters to the job's metrics. With the front door on, a
   recovered leader's recompute installs its answer and its recovered
   followers hit the cache immediately after. *)
let recover st =
  List.iter
    (fun lane ->
      if lane.status = Recovered then begin
        let io0 = now st lane.pool in
        let r = Exec.run ~config:st.config ~ordered:false lane.store lane.spec.path Plan.simple in
        Vec.clear lane.nodes;
        List.iter (Vec.push lane.nodes) r.Exec.nodes;
        fold_spent lane r.Exec.metrics;
        lane.finish_commit <- st.commits;
        lane.done_at <- lane.done_at +. (now st lane.pool -. io0)
      end)
    (List.rev st.finished)

(* The end-of-run invariant sweep: drained pools, consistent buffers, no
   latch held, and with [validate] every stream's own post-run checks
   (raising on any finding). *)
let sweep st =
  let v = ref [] in
  let fail fmt = Printf.ksprintf (fun msg -> v := msg :: !v) fmt in
  Array.iteri
    (fun p buffer ->
      let pending = Io_scheduler.pending_count (Buffer_manager.scheduler buffer) in
      if pending <> 0 then fail "pool %d: %d requests still pending after the workload" p pending;
      let completed = Buffer_manager.completed_count buffer in
      if completed <> 0 then fail "pool %d: %d batch-installed pages never delivered" p completed;
      match Buffer_manager.consistency_error buffer with
      | None -> ()
      | Some msg -> fail "pool %d: %s" p msg)
    st.pools;
  if Hashtbl.length st.latches <> 0 then
    fail "writers: %d cluster latches still held after the workload" (Hashtbl.length st.latches);
  let validate = st.config.Context.validate in
  if validate then
    List.iter
      (fun lane ->
        Option.iter
          (fun stream ->
            List.iter
              (fun msg -> fail "%s [site %d: %s]" msg lane.site lane.spec.label)
              (Exec.stream_violations stream))
          lane.stream)
      st.finished;
  let violations = List.rev !v in
  if violations <> [] && validate then
    failwith (Printf.sprintf "Workload invariant violation: %s" (String.concat "; " violations));
  violations

(* The run's metrics: the rows a measured-run boundary sets (run, disk,
   buffer, store) are the pools' deltas, which already hold any serial
   recompute's reads; every other row sums the jobs'. The pools share
   the process clock and heap, so CPU time and allocation are the
   longest pool's, not their sum. *)
let total pools jobs =
  let pooled = Array.fold_left Counters.add (Counters.create ()) pools in
  let m =
    List.fold_left (fun acc (j : job) -> Counters.add acc j.metrics) (Counters.create ()) jobs
  in
  List.iter
    (fun (row : Counters.row) ->
      match (row.layer, row.field) with
      | Counters.(Run | Disk | Buffer | Store), Counters.(Count (get, set) | Peak (get, set)) ->
        set m (get pooled)
      | Counters.(Run | Disk | Buffer | Store), Counters.Seconds (get, set) -> set m (get pooled)
      | _ -> ())
    Counters.table;
  m.cpu_time <- Array.fold_left (fun a (p : Exec.metrics) -> Float.max a p.cpu_time) 0.0 pools;
  m.minor_words <- Array.fold_left (fun a (p : Exec.metrics) -> max a p.minor_words) 0 pools;
  m.total_time <- m.io_time +. m.cpu_time;
  m

(* Each pool's deltas since the run began. *)
let measure st =
  Array.mapi
    (fun p snap ->
      let m = Counters.create () in
      Exec.measure ~who:(Printf.sprintf "Workload: pool %d" p) snap m;
      m)
    st.snaps

let report st pools violations =
  let to_job lane =
    let nodes =
      if lane.status = Timed_out then []
      else match lane.sorted with Some ns -> ns | None -> Exec.answer ~ordered:st.ordered lane.nodes
    in
    (* Every attempt's counters: the lane's own record if it is the only one. *)
    let m = match lane.spent with None -> lane.counters | Some s -> Counters.add s lane.counters in
    ( lane.site,
      {
        job_label = lane.spec.label;
        client = lane.client;
        status = lane.status;
        nodes;
        count = List.length nodes;
        submitted = lane.submitted_at;
        started = lane.started_at;
        finished = lane.done_at;
        latency = lane.done_at -. lane.submitted_at;
        served_ticks = m.served_ticks;
        starved_ticks = m.starved_ticks;
        yields = lane.yields;
        boosts = lane.boosts;
        writer_commits = m.writer_commits;
        snapshot_retries = m.snapshot_retries;
        finish_commit = lane.finish_commit;
        metrics = m;
      } )
  in
  let site_jobs = List.rev_map to_job st.finished in
  let jobs = List.map snd site_jobs in
  let m = total pools jobs in
  {
    result =
      {
        jobs;
        io_time = m.io_time;
        page_reads = m.page_reads;
        max_concurrent = st.max_concurrent;
        turns = st.turns;
        shared_jobs = m.shared_demand;
        writer_commits = m.writer_commits;
        latch_waits = m.latch_waits;
        snapshot_retries = m.snapshot_retries;
        commit_log = List.rev st.commit_log;
        violations;
        metrics = m;
      };
    site_jobs;
    pools = Array.mapi (fun p m -> { pool_metrics = m; pool_turns = st.granted.(p) }) pools;
    rebalance_moves = st.rebalance_moves;
  }

(* --- the turn loop ----------------------------------------------------------- *)

let run_topology ~config ~quantum ~ordered ~cold ~pools ~sites clients =
  if Array.length clients = 0 then invalid_arg "Workload.run_clients: no clients";
  (* A spec no plan can run is rejected before any state moves: found at
     admission instead, the raise would strand the pins other lanes
     hold. *)
  Array.iter
    (List.iter (fun (_, spec) ->
         if spec.ops = [] then
           Option.iter
             (fun msg -> invalid_arg (Printf.sprintf "Workload: job %S: %s" spec.label msg))
             (Exec.plan_error spec.path spec.plan)))
    clients;
  let k = Array.length pools in
  let st =
    {
      config = Option.value config ~default:Context.default_config;
      quantum;
      ordered;
      pools;
      sites;
      (* One measured-run boundary per pool: the cold reset, the deltas
         behind [pool_stat] and the result's measured rows, and the
         leftover-pin check. *)
      snaps =
        Array.mapi
          (fun p buffer ->
            Exec.snapshot ~cold buffer
              (Array.fold_right (fun (s, q) acc -> if q = p then s :: acc else acc) sites []))
          pools;
      remaining = Array.copy clients;
      waiting = Array.init k (fun _ -> Queue.create ());
      active = Array.make k [];
      rr = Array.make k 0;
      granted = Array.make k 0;
      last_served = Array.make (Array.length sites) 0;
      latches = Hashtbl.create 16;
      commits = 0;
      commit_log = [];
      finished = [];
      max_concurrent = 0;
      turns = 0;
      grr = 0;
      rebalance_moves = 0;
    }
  in
  Array.iteri (fun client _ -> submit st client) clients;
  let pending_work () =
    Array.exists (fun l -> l <> []) st.active
    || Array.exists (fun q -> not (Queue.is_empty q)) st.waiting
  in
  while pending_work () do
    for p = 0 to k - 1 do
      admit st p
    done;
    expire st;
    Option.iter (serve st) (pick st)
  done;
  recover st;
  let pools = measure st in
  report st pools (sweep st)

let run_clients ?config ?(quantum = 0.004) ?(ordered = true) ~cold store clients =
  (run_topology ~config ~quantum ~ordered ~cold ~pools:[| Store.buffer store |]
     ~sites:[| (store, 0) |]
     (Array.map (List.map (fun spec -> (0, spec))) clients))
    .result

let run ?config ?quantum ?ordered ~cold store specs =
  if specs = [] then invalid_arg "Workload.run: no queries";
  run_clients ?config ?quantum ?ordered ~cold store
    (Array.of_list (List.map (fun s -> [ s ]) specs))
