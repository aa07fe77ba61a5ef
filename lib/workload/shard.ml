module Store = Xnav_store.Store
module Import = Xnav_store.Import
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Io_scheduler = Xnav_storage.Io_scheduler

(* Tenant placement must be stable across processes and tenant-list
   orders — it is part of the format, not an engine detail — so it can
   not use the polymorphic hash. FNV-1a over the name's bytes, masked
   to keep the accumulator positive on 32-bit-int platforms. *)
let stable_shard ~shards name =
  if shards < 1 then invalid_arg "Shard.stable_shard: shards must be >= 1";
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := ((!h lxor Char.code c) * 0x01000193) land 0x3FFFFFFF) name;
  !h mod shards

type site = { name : string; tix : int; shard_id : int; store : Store.t }
type shard = { id : int; disk : Disk.t; buffer : Buffer_manager.t }

type t = {
  shards : shard array;
  sites : site array;  (* tenant creation order; [tix] indexes here *)
  by_name : (string, site) Hashtbl.t;
}

let create ?(capacity = 1000) ?(policy = Io_scheduler.Elevator) ?replacement
    ?(strategy = Import.Dfs) ?page_size ?payload ~shards:k tenants =
  if k < 1 then invalid_arg "Shard.create: shards must be >= 1";
  if tenants = [] then invalid_arg "Shard.create: no tenants";
  let disk_config =
    match page_size with
    | None -> Disk.default_config
    | Some page_size -> { Disk.default_config with Disk.page_size }
  in
  let shards =
    Array.init k (fun id ->
        let disk = Disk.create ~config:disk_config () in
        { id; disk; buffer = Buffer_manager.create ~capacity ~policy ?replacement disk })
  in
  let by_name = Hashtbl.create 16 in
  let sites =
    Array.mapi
      (fun tix (name, doc) ->
        if Hashtbl.mem by_name name then
          invalid_arg (Printf.sprintf "Shard.create: duplicate tenant %S" name);
        let shard_id = stable_shard ~shards:k name in
        let s = shards.(shard_id) in
        (* Imports append: co-located tenants share the shard's disk,
           each starting at the current page frontier. *)
        let import = Import.run ~strategy ?payload s.disk doc in
        let site = { name; tix; shard_id; store = Store.attach s.buffer import } in
        Hashtbl.replace by_name name site;
        site)
      (Array.of_list tenants)
  in
  { shards; sites; by_name }

let shard_count t = Array.length t.shards
let tenant_count t = Array.length t.sites

let site_of t name =
  match Hashtbl.find_opt t.by_name name with
  | Some site -> site
  | None -> invalid_arg (Printf.sprintf "Shard: unknown tenant %S" name)

let shard_of t name = (site_of t name).shard_id
let store t name = (site_of t name).store

type tjob = { tenant : string; spec : Workload.spec }

type tenant_stat = {
  tenant : string;
  shard : int;
  jobs : int;
  p50 : float;
  p99 : float;
  served_ticks : int;
  starved_ticks : int;
  cache_hits : int;
}

type shard_stat = {
  shard : int;
  tenants : int;
  page_reads : int;
  io_time : float;
  turns : int;
  scan_resist_hits : int;
}

type result = {
  jobs : (string * Workload.job) list;
  tenant_stats : tenant_stat list;
  shard_stats : shard_stat list;
  turns : int;
  rebalance_moves : int;
  max_concurrent : int;
  cpu_time : float;
  io_time : float;
  page_reads : int;
  cache_hits : int;
  violations : string list;
}

let run_clients ?config ?(quantum = 0.004) ?(ordered = true) ~cold t clients =
  if Array.length clients = 0 then invalid_arg "Shard.run_clients: no clients";
  let clients =
    Array.map
      (List.map (fun (j : tjob) ->
           if j.spec.Workload.ops <> [] then
             invalid_arg
               "Shard.run_clients: writer jobs are not supported; route updates through \
                Workload.run_clients on the owning tenant's store";
           ((site_of t j.tenant).tix, j.spec)))
      clients
  in
  let run =
    Workload.run_topology ~config ~quantum ~ordered ~cold
      ~pools:(Array.map (fun s -> s.buffer) t.shards)
      ~sites:(Array.map (fun site -> (site.store, site.shard_id)) t.sites)
      clients
  in
  let r = run.Workload.result in
  let jobs = List.map (fun (tix, j) -> (t.sites.(tix).name, j)) run.Workload.site_jobs in
  let shard_stats =
    Array.to_list
      (Array.mapi
         (fun sid (ps : Workload.pool_stat) ->
           {
             shard = sid;
             tenants =
               Array.fold_left (fun a site -> if site.shard_id = sid then a + 1 else a) 0 t.sites;
             page_reads = ps.Workload.pool_reads;
             io_time = ps.Workload.pool_io;
             turns = ps.Workload.pool_turns;
             scan_resist_hits = ps.Workload.pool_scan_resist_hits;
           })
         run.Workload.pools)
  in
  let tenant_stats =
    Array.to_list
      (Array.map
         (fun site ->
           let mine = List.filter (fun (name, _) -> name = site.name) jobs in
           let lats = List.map (fun (_, (j : Workload.job)) -> j.Workload.latency) mine in
           {
             tenant = site.name;
             shard = site.shard_id;
             jobs = List.length mine;
             p50 = Workload.percentile lats 50.0;
             p99 = Workload.percentile lats 99.0;
             served_ticks =
               List.fold_left (fun a (_, j) -> a + j.Workload.served_ticks) 0 mine;
             starved_ticks =
               List.fold_left (fun a (_, j) -> a + j.Workload.starved_ticks) 0 mine;
             cache_hits =
               List.fold_left (fun a (_, j) -> a + if j.Workload.cache_hit then 1 else 0) 0 mine;
           })
         t.sites)
  in
  {
    jobs;
    tenant_stats;
    shard_stats;
    turns = r.Workload.turns;
    rebalance_moves = run.Workload.rebalance_moves;
    max_concurrent = r.Workload.max_concurrent;
    cpu_time = r.Workload.cpu_time;
    io_time = r.Workload.io_time;
    page_reads = r.Workload.page_reads;
    cache_hits = r.Workload.cache_hits;
    violations = r.Workload.violations;
  }
