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
  pin_wait : float;
  served_ticks : int;
  starved_ticks : int;
  yields : int;
  boosts : int;
  shared : bool;
  cache_hit : bool;
  writer_commits : int;
  latch_waits : int;
  snapshot_retries : int;
  finish_commit : int;
  fell_back : bool;
}

type result = {
  jobs : job list;
  io_time : float;
  cpu_time : float;
  total_time : float;
  page_reads : int;
  seek_distance : int;
  batched_reads : int;
  batch_pages : int;
  coalesce_runs : int;
  max_concurrent : int;
  turns : int;
  shared_jobs : int;
  cache_hits : int;
  cache_misses : int;
  writer_commits : int;
  latch_waits : int;
  snapshot_retries : int;
  cluster_stales : int;
  commit_log : update_op list;
  violations : string list;
}


type pool_stat = {
  pool_reads : int;
  pool_io : float;
  pool_turns : int;
  pool_scan_resist_hits : int;
}

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
  mutable ctx : Context.t;  (* counter holder; the stream's context when one exists *)
  mutable stream : Exec.stream option;
      (* [None] for jobs that never execute a stream: answered from the
         result cache at admission, riding another client's identical
         in-flight scan as a follower, or a writer job. *)
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
     mutation stamp the stream started under. A writer commit into an
     observed cluster forces a restart ([retries]); served/starved
     credits of abandoned streams are carried across restarts. *)
  touched : (int, unit) Hashtbl.t;
  mutable snapshot : int;
  mutable retries : int;
  mutable carry_served : int;
  mutable carry_starved : int;
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

(* Whether a statement seeds from the partition's entry lists (streams
   always run from the root, so an index plan is never degraded). *)
let index_seeded = function
  | Plan.Reordered { io = Plan.Io_index _; _ } -> true
  | Plan.Reordered _ | Plan.Simple _ -> false

let percentile xs p =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    List.nth sorted (min (n - 1) (max 0 (rank - 1)))

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
  let disks = Array.map Buffer_manager.disk pools in
  let scheds = Array.map Buffer_manager.scheduler pools in
  (* One measured-run boundary per pool: the cold reset, the deltas
     behind [pool_stat] and the result's disk rows, and the leftover-pin
     check. *)
  let snaps =
    Array.mapi
      (fun p buffer ->
        let stores =
          Array.fold_right (fun (store, q) acc -> if q = p then store :: acc else acc) sites []
        in
        Exec.snapshot ~cold buffer stores)
      pools
  in
  let now p = Disk.elapsed disks.(p) in
  let cfg = match config with Some c -> c | None -> Context.default_config in
  (* The front door: both levels — result-cache consultation at admission
     and cross-client shared-scan dedup — ride the one knob, so knob-off
     reproduces the historical engine exactly. *)
  let front_door = cfg.Context.result_cache in

  (* Closed-loop clients: each entry is the client's remaining (site,
     spec) jobs; a client's next job is submitted the moment the previous
     finishes, and queues at its site's pool. *)
  let remaining = Array.map (fun l -> ref l) clients in
  let waiting = Array.init k (fun _ -> Queue.create ()) in
  let submit client =
    match !(remaining.(client)) with
    | [] -> ()
    | (site, spec) :: rest ->
      remaining.(client) := rest;
      let pool = snd sites.(site) in
      Queue.add (client, site, spec, now pool) waiting.(pool)
  in
  Array.iteri (fun client _ -> submit client) clients;

  let active = Array.make k [] in
  let rr = Array.make k 0 in
  let granted = Array.make k 0 in
  let finished = ref [] in
  let max_concurrent = ref 0 in
  let turns = ref 0 in
  let grr = ref 0 in
  let rebalance_moves = ref 0 in
  (* Cross-site fairness state: the turn at which each site was last
     served (or admitted — arrival resets its aging). *)
  let last_served = Array.make (Array.length sites) 0 in
  let total_active () = Array.fold_left (fun a l -> a + List.length l) 0 active in

  (* Writer state, engine-wide. [latches] maps a cluster pid to the
     client holding it exclusively; readers never consult it (they are
     latch-free — snapshots protect them), writers acquire before
     mutating and release at commit. [commit_count] stamps the serial
     order of commits; [commit_log] records committed ops (newest first)
     so a differential harness can replay the schedule serially. *)
  let latches : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let commit_count = ref 0 in
  let commit_log = ref [] in

  let make_lane ~client ~site ~spec ~submitted_at ~stream =
    let store, pool = sites.(site) in
    {
      spec;
      client;
      site;
      store;
      pool;
      submitted_at;
      started_at = now pool;
      ctx =
        (match stream with
        | Some s -> Exec.stream_ctx s
        | None -> Context.create ~config:cfg store);
      stream;
      followers = [];
      nodes = Vec.create ();
      sorted = None;
      yields = 0;
      boosts = 0;
      status = Completed;
      done_at = 0.0;
      touched = Hashtbl.create 16;
      snapshot = Store.mutation_stamp store;
      retries = 0;
      carry_served = 0;
      carry_starved = 0;
      pending_ops = spec.ops;
      armed = None;
      finish_commit = 0;
    }
  in

  (* Install a completed stream job's answer for the next identical
     statement. Streams always run from the root context, so every
     completed job is cacheable. Entries key on the store's uid, so
     co-located sites never alias. *)
  let cache_fill lane =
    if front_door then begin
      let nodes = Exec.answer ~ordered:true lane.nodes in
      lane.sorted <- Some nodes;
      (* The footprint is every pid the final stream observed. *)
      Result_cache.install lane.ctx.Context.counters lane.store (Path.to_string lane.spec.path)
        ~touched:lane.touched nodes
    end
  in

  let finish lane status =
    let p = lane.pool in
    active.(p) <- List.filter (fun l -> l != lane) active.(p);
    lane.status <- status;
    lane.done_at <- now p;
    lane.finish_commit <- !commit_count;
    lane.ctx.Context.counters.Context.snapshot_retries <- lane.retries;
    finished := lane :: !finished;
    (match (status, lane.stream) with Completed, Some _ -> cache_fill lane | _ -> ());
    (* A completed shared scan answers every follower at the same
       instant; a recovered one sends them to the same serial recompute
       (where the leader's recomputed answer is already cached). Only a
       front-door stream job leads, so a completed leader has just run
       [cache_fill] and its [sorted] answer is set. *)
    List.iter
      (fun f ->
        if status = Completed then f.sorted <- lane.sorted;
        f.status <- status;
        f.done_at <- now p;
        f.finish_commit <- !commit_count;
        finished := f :: !finished;
        submit f.client)
      lane.followers;
    lane.followers <- [];
    (* Without [validate], nothing reads a finished lane's execution
       state again: release the pipeline, the touch log and, once the
       answer is held in document order, the arrival buffer. The
       end-of-run [validate] sweep needs every stream, and only once all
       pools are quiescent: swept here, one lane would report another's
       pins. *)
    if not cfg.Context.validate then begin
      lane.stream <- None;
      Hashtbl.reset lane.touched;
      if lane.sorted <> None then lane.nodes <- Vec.create ()
    end;
    submit lane.client
  in

  (* Shared-scan dedup (level 2): an identical statement on the same
     store already in flight means this job's cluster demand is a subset
     of work the pool is about to do anyway — attach it as a follower
     instead of issuing a second scan. Deadline-carrying jobs keep their
     own lane (a follower's fate is its leader's). *)
  let find_leader site spec =
    if (not front_door) || spec.timeout <> None then None
    else
      let key = Path.to_string spec.path in
      List.find_opt
        (fun l ->
          l.site = site && l.stream <> None && l.spec.timeout = None
          && Path.to_string l.spec.path = key)
        active.(snd sites.(site))
  in

  let admit p =
    let q = waiting.(p) in
    let capacity = Buffer_manager.capacity pools.(p) in
    let stop = ref false in
    while (not !stop) && not (Queue.is_empty q) do
      let client, site, spec, submitted_at = Queue.peek q in
      (* Writers skip the front door: a writer produces no statement
         answer to cache or share. *)
      let reader = spec.ops = [] in
      match if reader then find_leader site spec else None with
      | Some leader ->
        ignore (Queue.pop q);
        let lane = make_lane ~client ~site ~spec ~submitted_at ~stream:None in
        lane.ctx.Context.counters.Context.shared_demand <- 1;
        leader.followers <- lane :: leader.followers
      | None -> (
        match
          if reader && front_door then
            Result_cache.find (fst sites.(site)) (Path.to_string spec.path)
          else None
        with
        | Some entry ->
          (* Level 1 hit: the job completes at admission, no lane slot,
             no planning, no I/O. *)
          ignore (Queue.pop q);
          let lane = make_lane ~client ~site ~spec ~submitted_at ~stream:None in
          lane.ctx.Context.counters.Context.cache_hits <- 1;
          lane.sorted <- Some (Result_cache.nodes entry);
          lane.done_at <- now p;
          lane.finish_commit <- !commit_count;
          finished := lane :: !finished;
          submit lane.client
        | None ->
          let n = List.length active.(p) in
          (* Alone is always admissible — the single-query engine makes
             progress on any pool down to one frame (and recovers through
             the fallback restart if it cannot). Company needs headroom;
             each pool only absorbs its own lanes' pin demand. A writer's
             transient fix/unfix pattern fits the same bound. *)
          if n = 0 || demand_frames * (n + 1) <= capacity then begin
            ignore (Queue.pop q);
            match
              if reader then Some (Exec.prepare ?config (fst sites.(site)) spec.path spec.plan)
              else None
            with
            | stream ->
              let lane = make_lane ~client ~site ~spec ~submitted_at ~stream in
              active.(p) <- active.(p) @ [ lane ];
              last_served.(site) <- max last_served.(site) !turns;
              let tot = total_active () in
              if tot > !max_concurrent then max_concurrent := tot
            | exception Buffer_manager.Buffer_full ->
              (* A Simple plan reads its context node while preparing; with
                 batch installs overcommitting the pool, other lanes' pins
                 can leave no frame for it. Recover the job serially, like
                 a stream that wedges later. *)
              finish (make_lane ~client ~site ~spec ~submitted_at ~stream:None) Recovered
          end
          else stop := true)
    done
  in

  (* A query is boosted when some cluster it has queued demand for is
     already cheap on its pool: resident, inside another co-resident
     query's open scan window, or part of a coalescible pending run.
     Serving it now converts another query's work (or the scheduler's
     batching) into this query's progress. *)
  let boosted p lanes lane =
    match lane.stream with
    | None -> false
    | Some stream -> (
      match Exec.stream_demand stream with
      | [] -> false
      | demand ->
        let buffer = pools.(p) and sched = scheds.(p) in
        let windows =
          List.filter_map
            (fun l -> if l == lane then None else Option.bind l.stream Exec.stream_scan_window)
            lanes
        in
        List.exists
          (fun pid ->
            Buffer_manager.resident buffer pid
            || (Io_scheduler.is_pending sched pid
               && (Io_scheduler.is_pending sched (pid - 1)
                  || Io_scheduler.is_pending sched (pid + 1)))
            || List.exists (fun (lo, hi) -> pid >= lo && pid <= hi) windows)
          demand)
  in

  (* Snapshot rule: a stream is valid while no writer has committed into
     a cluster the stream has already observed ([touched]). Commits are
     atomic within a writer's turn, so checking once at the top of each
     reader turn suffices — the stream cannot observe a half-applied
     op. Page stamps never exceed the store's mutation counter, so the
     fold only runs once something has committed since the snapshot. An
     index-seeded stream read its seeds from the partition's entry
     lists when it was built, not from pages, so no footprint covers a
     write that changes them: as for {!Result_cache}'s footprint-less
     entries, any commit since the snapshot conflicts. On conflict the
     stream restarts from scratch under a fresh stamp; fairness credits
     of the abandoned attempt are carried. *)
  let restart lane stream =
    Exec.stream_abandon stream;
    let c = lane.ctx.Context.counters in
    lane.carry_served <- lane.carry_served + c.Context.served_ticks;
    lane.carry_starved <- lane.carry_starved + c.Context.starved_ticks;
    Vec.clear lane.nodes;
    Hashtbl.reset lane.touched;
    lane.retries <- lane.retries + 1;
    let s = Exec.prepare ?config lane.store lane.spec.path lane.spec.plan in
    lane.stream <- Some s;
    lane.ctx <- Exec.stream_ctx s;
    lane.snapshot <- Store.mutation_stamp lane.store
  in

  (* Serve one cost credit: run until the quantum's worth of simulated
     time is spent, a random I/O fires (yield immediately — cheaper work
     can run while the head repositions), the step cap is reached, the
     stream ends, or the pool is exhausted (tear down, recompute serially
     later). *)
  let serve_reader lane stream =
    let store = lane.store and p = lane.pool in
    let disk = disks.(p) in
    let saved = Store.swap_touch_log store (Some lane.touched) in
    let conflicted =
      Store.mutation_stamp store > lane.snapshot
      && (index_seeded lane.spec.plan
         || Hashtbl.fold
              (fun pid () acc -> acc || Store.page_stamp store pid > lane.snapshot)
              lane.touched false)
    in
    let stream =
      if not conflicted then Some stream
      else
        match restart lane stream with
        | () -> lane.stream
        | exception Buffer_manager.Buffer_full ->
          finish lane Recovered;
          None
    in
    (match stream with
    | None -> ()
    | Some stream ->
      let start = now p in
      let steps = ref 0 in
      let running = ref true in
      while !running do
        let rnd0 = (Disk.stats disk).Disk.random_reads in
        match Exec.stream_next stream with
        | None ->
          finish lane Completed;
          running := false
        | Some info ->
          incr steps;
          Vec.push lane.nodes info;
          if (Disk.stats disk).Disk.random_reads > rnd0 then begin
            lane.yields <- lane.yields + 1;
            running := false
          end
          else if now p -. start >= quantum || !steps >= step_cap then running := false
        | exception Buffer_manager.Buffer_full ->
          (* The pool is exhausted under contention (or this lane wedged
             post-fallback). Unwind its async state and recompute the
             answer with the Simple plan once everything has drained. *)
          Exec.stream_abandon stream;
          finish lane Recovered;
          running := false
      done);
    ignore (Store.swap_touch_log store saved)
  in

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
  let latch_targets = function
    | Insert_child { parent; _ } -> [ parent.Node_id.pid ]
    | Delete_subtree victim -> [ victim.Node_id.pid ]
  in
  let op_valid store op =
    match op with
    | Insert_child { parent; _ } -> (
      match Store.read store parent with
      | Node_record.Core _ -> true
      | _ | (exception Failure _) | (exception Invalid_argument _) -> false)
    | Delete_subtree victim -> (
      match Store.read store victim with
      | Node_record.Core c -> c.Node_record.parent <> None
      | _ | (exception Failure _) | (exception Invalid_argument _) -> false)
  in
  let serve_writer lane =
    let store = lane.store in
    let c = lane.ctx.Context.counters in
    match lane.armed with
    | Some (op, held) ->
      let write_set = Hashtbl.create 8 in
      let saved = Store.swap_write_log store (Some write_set) in
      let committed =
        try
          (match op with
          | Insert_child { parent; tag } -> ignore (Update.insert_element store ~parent tag)
          | Delete_subtree victim -> ignore (Update.delete_subtree store victim));
          true
        with _ -> false
      in
      ignore (Store.swap_write_log store saved);
      List.iter (fun pid -> Hashtbl.remove latches pid) held;
      lane.armed <- None;
      if committed then begin
        c.Context.writer_commits <- c.Context.writer_commits + 1;
        incr commit_count;
        commit_log := op :: !commit_log;
        if front_door then begin
          let ws = Hashtbl.fold (fun pid () acc -> pid :: acc) write_set [] in
          let staled = Result_cache.stale_clusters store (Array.of_list ws) in
          c.Context.cluster_stales <- c.Context.cluster_stales + staled
        end
      end;
      if lane.pending_ops = [] then finish lane Completed
    | None -> (
      match lane.pending_ops with
      | [] -> finish lane Completed
      | op :: rest -> (
        let targets = latch_targets op in
        let blocked =
          List.exists
            (fun pid ->
              match Hashtbl.find_opt latches pid with
              | Some owner -> owner <> lane.client
              | None -> false)
            targets
        in
        if blocked then c.Context.latch_waits <- c.Context.latch_waits + 1
        else begin
          List.iter (fun pid -> Hashtbl.replace latches pid lane.client) targets;
          match op_valid store op with
          | true ->
            lane.armed <- Some (op, targets);
            lane.pending_ops <- rest
          | false ->
            List.iter (fun pid -> Hashtbl.remove latches pid) targets;
            lane.pending_ops <- rest;
            if rest = [] then finish lane Completed
          | exception Buffer_manager.Buffer_full ->
            (* Pool too tight even for the validation probe: release and
               retry the same op next turn. *)
            List.iter (fun pid -> Hashtbl.remove latches pid) targets;
            lane.yields <- lane.yields + 1
        end))
  in

  let serve lane =
    if lane.spec.ops <> [] then serve_writer lane
    else match lane.stream with None -> () | Some stream -> serve_reader lane stream
  in

  let pending_work () =
    Array.exists (fun l -> l <> []) active || Array.exists (fun q -> not (Queue.is_empty q)) waiting
  in
  while pending_work () do
    for p = 0 to k - 1 do
      admit p
    done;
    (* Deadlines, each on the owning pool's clock, before the turn is
       given out: a timed-out query unwinds through abort_async and its
       client moves on to its next job. *)
    Array.iteri
      (fun p lanes ->
        let t = now p in
        List.iter
          (fun lane ->
            match (lane.spec.timeout, lane.stream) with
            | Some dt, Some stream when t -. lane.started_at >= dt ->
              Exec.stream_abandon stream;
              finish lane Timed_out
            | _ -> ())
          lanes)
      active;
    let cands = ref [] in
    for p = k - 1 downto 0 do
      if active.(p) <> [] then cands := p :: !cands
    done;
    match !cands with
    | [] -> ()
    | cands ->
      incr turns;
      (* Level 2, the balancer: round-robin over pools with runnable
         lanes — unless a site's pressure (turns unserved) exceeds the
         gate, in which case that site is served directly wherever it
         lives. The window scales with the load: under n active lanes a
         fair rotation serves each about every n turns, so 2n + 4 flags a
         genuinely starved site, not a slow rotation. A lone site is
         served or admitted every turn, so its pressure never passes 1
         and the gate never fires. *)
      let default_pool = List.nth cands (!grr mod List.length cands) in
      incr grr;
      let threshold = (2 * total_active ()) + 4 in
      let worst = ref None in
      Array.iter
        (List.iter (fun l ->
             let pressure = !turns - last_served.(l.site) in
             match !worst with
             | Some (wp, ws) when wp > pressure || (wp = pressure && ws <= l.site) -> ()
             | _ -> worst := Some (pressure, l.site)))
        active;
      let focus =
        match !worst with Some (pressure, site) when pressure > threshold -> Some site | _ -> None
      in
      let p = match focus with Some site -> snd sites.(site) | None -> default_pool in
      granted.(p) <- granted.(p) + 1;
      (* Level 1, within the chosen pool: round-robin rotation with the
         cheap-demand boost override. *)
      let lanes = active.(p) in
      let n = List.length lanes in
      let kk = rr.(p) mod n in
      rr.(p) <- rr.(p) + 1;
      let rotated =
        List.filteri (fun i _ -> i >= kk) lanes @ List.filteri (fun i _ -> i < kk) lanes
      in
      let head = List.hd rotated in
      let default_pick =
        match List.filter (boosted p lanes) rotated with [] -> head | b :: _ -> b
      in
      let pick =
        match focus with
        | Some site -> (
          match List.find_opt (fun l -> l.site = site) rotated with
          | Some l ->
            if l != default_pick then incr rebalance_moves;
            l
          | None -> default_pick)
        | None -> default_pick
      in
      if pick != head && pick == default_pick then pick.boosts <- pick.boosts + 1;
      let credit l =
        let c = l.ctx.Context.counters in
        c.Context.served_ticks <- c.Context.served_ticks + 1
      in
      credit pick;
      (* Fairness credits are charged to every sharer: a follower is
         being served whenever its leader's scan advances. *)
      List.iter credit pick.followers;
      last_served.(pick.site) <- !turns;
      (* Starvation is engine-wide: every other runnable lane, on any
         pool, waited this turn — that keeps served/starved ratios
         comparable across sites, which is what the gate protects. *)
      Array.iter
        (List.iter (fun l ->
             if l != pick then begin
               let c = l.ctx.Context.counters in
               c.Context.starved_ticks <- c.Context.starved_ticks + 1
             end))
        active;
      serve pick
  done;

  (* Pools are quiescent now: recompute abandoned queries serially with
     the Simple plan (the paper's fallback answer path), charging the
     recompute's simulated time to the job on its own pool's clock. With
     the front door on, a recovered leader's recompute installs its
     answer and its recovered followers hit the cache immediately
     after. *)
  List.iter
    (fun lane ->
      if lane.status = Recovered then begin
        let io0 = now lane.pool in
        let r = Exec.run ?config ~ordered:false lane.store lane.spec.path Plan.simple in
        Vec.clear lane.nodes;
        List.iter (Vec.push lane.nodes) r.Exec.nodes;
        lane.finish_commit <- !commit_count;
        lane.done_at <- lane.done_at +. (now lane.pool -. io0)
      end)
    (List.rev !finished);

  let metrics =
    Array.mapi
      (fun p snap ->
        let m = Counters.create () in
        Exec.measure ~who:(Printf.sprintf "Workload: pool %d" p) snap m;
        m)
      snaps
  in
  let validate = cfg.Context.validate in
  let violations =
    let v = ref [] in
    let fail fmt = Printf.ksprintf (fun msg -> v := msg :: !v) fmt in
    Array.iteri
      (fun p buffer ->
        let pending = Io_scheduler.pending_count scheds.(p) in
        if pending <> 0 then fail "pool %d: %d requests still pending after the workload" p pending;
        let completed = Buffer_manager.completed_count buffer in
        if completed <> 0 then fail "pool %d: %d batch-installed pages never delivered" p completed;
        match Buffer_manager.consistency_error buffer with
        | None -> ()
        | Some msg -> fail "pool %d: %s" p msg)
      pools;
    if Hashtbl.length latches <> 0 then
      fail "writers: %d cluster latches still held after the workload" (Hashtbl.length latches);
    if validate then
      List.iter
        (fun lane ->
          match lane.stream with
          | None -> ()
          | Some stream ->
            List.iter
              (fun msg -> fail "%s [site %d: %s]" msg lane.site lane.spec.label)
              (Exec.stream_violations stream))
        !finished;
    List.rev !v
  in
  if violations <> [] && validate then
    failwith (Printf.sprintf "Workload invariant violation: %s" (String.concat "; " violations));

  let to_job lane =
    let nodes =
      if lane.status = Timed_out then []
      else
        match lane.sorted with
        | Some ns -> ns
        | None ->
          Exec.answer ~ordered lane.nodes
    in
    let c = lane.ctx.Context.counters in
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
        pin_wait = lane.started_at -. lane.submitted_at;
        served_ticks = lane.carry_served + c.Context.served_ticks;
        starved_ticks = lane.carry_starved + c.Context.starved_ticks;
        yields = lane.yields;
        boosts = lane.boosts;
        shared = c.Context.shared_demand > 0;
        cache_hit = c.Context.cache_hits > 0;
        writer_commits = c.Context.writer_commits;
        latch_waits = c.Context.latch_waits;
        snapshot_retries = lane.retries;
        finish_commit = lane.finish_commit;
        fell_back = Context.fallback lane.ctx;
      } )
  in
  let site_jobs = List.rev_map to_job !finished in
  let jobs = List.map snd site_jobs in
  let pool_stats =
    Array.mapi
      (fun p (m : Counters.counters) ->
        {
          pool_reads = m.page_reads;
          pool_io = m.io_time;
          pool_turns = granted.(p);
          pool_scan_resist_hits = m.scan_resist_hits;
        })
      metrics
  in
  (* Disk rows sum over the pools. The pools share the process clock, so
     CPU time is the longest pool measurement, not their sum. *)
  let total = Array.fold_left Counters.add (Counters.create ()) metrics in
  let cpu_time =
    Array.fold_left (fun a (m : Counters.counters) -> Float.max a m.cpu_time) 0.0 metrics
  in
  let sum_lanes field =
    List.fold_left (fun a lane -> a + field lane.ctx.Context.counters) 0 !finished
  in
  let result =
    {
      jobs;
      io_time = total.io_time;
      cpu_time;
      total_time = total.io_time +. cpu_time;
      page_reads = total.page_reads;
      seek_distance = total.seek_distance;
      batched_reads = total.batched_reads;
      batch_pages = total.batch_pages;
      coalesce_runs = total.coalesce_runs;
      max_concurrent = !max_concurrent;
      turns = !turns;
      shared_jobs = List.length (List.filter (fun j -> j.shared) jobs);
      cache_hits = List.length (List.filter (fun j -> j.cache_hit) jobs);
      cache_misses = sum_lanes (fun c -> c.Context.cache_misses);
      writer_commits = !commit_count;
      latch_waits = sum_lanes (fun c -> c.Context.latch_waits);
      snapshot_retries = List.fold_left (fun a lane -> a + lane.retries) 0 !finished;
      cluster_stales = sum_lanes (fun c -> c.Context.cluster_stales);
      commit_log = List.rev !commit_log;
      violations;
    }
  in
  { result; site_jobs; pools = pool_stats; rebalance_moves = !rebalance_moves }

let run_clients ?config ?(quantum = 0.004) ?(ordered = true) ~cold store clients =
  (run_topology ~config ~quantum ~ordered ~cold ~pools:[| Store.buffer store |]
     ~sites:[| (store, 0) |]
     (Array.map (List.map (fun spec -> (0, spec))) clients))
    .result

let run ?config ?quantum ?ordered ~cold store specs =
  if specs = [] then invalid_arg "Workload.run: no queries";
  run_clients ?config ?quantum ?ordered ~cold store
    (Array.of_list (List.map (fun s -> [ s ]) specs))
