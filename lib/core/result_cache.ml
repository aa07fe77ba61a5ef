module Store = Xnav_store.Store

(* One process-wide statement+result cache. Entries live on an intrusive
   circular doubly-linked LRU list threaded through a sentinel: a hit is
   pure pointer surgery (unlink + relink at the MRU end), so serving
   repeat traffic allocates nothing beyond the [Some] cell the lookup
   returns. The hash table is keyed by (store uid, document identity,
   normalized path): uids disambiguate live stores, but they are a
   per-process counter — a uid reused after a counter reset (a fresh
   process over a warm cache) could alias two different documents, so
   the content digest [Store.identity] rides in the key as well. The
   mutation stamp is validated on every hit rather than folded into the
   key, so a store update lazily drops exactly the entries it staled. *)

type entry = {
  key : int * int * string;
  mutable stamp : int;
  mutable nodes : Store.info list;  (* distinct, document order *)
  mutable count : int;
  mutable clusters : int array option;
      (* cluster footprint the answer was computed from: the entry stays
         valid across mutations that touch none of these pids. [None] =
         unknown footprint, staled by any mutation (the pre-footprint
         behaviour, and the only sound choice for index-seeded runs
         whose answers were not derived from page reads). *)
  mutable prev : entry;
  mutable next : entry;
}

type stats = { hits : int; misses : int; evictions : int; stales : int }

let default_capacity = 256

let table : (int * int * string, entry) Hashtbl.t = Hashtbl.create 512
let capacity_ref = ref default_capacity
let size_ref = ref 0
let hits_ref = ref 0
let misses_ref = ref 0
let evictions_ref = ref 0
let stales_ref = ref 0

let rec sentinel =
  {
    key = (-1, 0, "");
    stamp = -1;
    nodes = [];
    count = 0;
    clusters = None;
    prev = sentinel;
    next = sentinel;
  }

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front e =
  e.prev <- sentinel;
  e.next <- sentinel.next;
  sentinel.next.prev <- e;
  sentinel.next <- e

let drop e =
  unlink e;
  Hashtbl.remove table e.key;
  decr size_ref

(* Evict from the LRU end until the size fits. *)
let rec trim evicted =
  if !size_ref <= !capacity_ref || !size_ref = 0 then evicted
  else begin
    drop sentinel.prev;
    incr evictions_ref;
    trim (evicted + 1)
  end

let capacity () = !capacity_ref

let set_capacity n =
  (* Clamp instead of raising: 0 (and anything below) means disabled. *)
  capacity_ref := max 0 n;
  ignore (trim 0)

let size () = !size_ref
let nodes e = e.nodes
let count e = e.count

(* Whether the entry's answer still describes the store. With a cluster
   footprint, only mutations that touched one of the footprint's pids
   invalidate; without one, any mutation does. *)
let still_valid store e =
  let current = Store.mutation_stamp store in
  e.stamp = current
  ||
  match e.clusters with
  | None -> false
  | Some pids ->
    let ok = not (Array.exists (fun pid -> Store.page_stamp store pid > e.stamp) pids) in
    (* Fast-forward so the cheap equality check covers later lookups. *)
    if ok then e.stamp <- current;
    ok

let find store path =
  match Hashtbl.find_opt table (Store.uid store, Store.identity store, path) with
  | None ->
    incr misses_ref;
    None
  | Some e ->
    if not (still_valid store e) then begin
      (* A mutation touched the entry's footprint; the entry can never
         become valid again (stamps only grow), so drop it now. *)
      drop e;
      incr stales_ref;
      incr misses_ref;
      None
    end
    else begin
      unlink e;
      push_front e;
      incr hits_ref;
      Some e
    end

let add ?clusters store path ~count:n nodes =
  if !capacity_ref = 0 then 0
  else begin
    let key = (Store.uid store, Store.identity store, path) in
    let stamp = Store.mutation_stamp store in
    match Hashtbl.find_opt table key with
    | Some e ->
      e.stamp <- stamp;
      e.nodes <- nodes;
      e.count <- n;
      e.clusters <- clusters;
      unlink e;
      push_front e;
      0
    | None ->
      let e =
        { key; stamp; nodes; count = n; clusters; prev = sentinel; next = sentinel }
      in
      Hashtbl.replace table key e;
      incr size_ref;
      push_front e;
      trim 0
  end

let install (c : Counters.counters) store path ~touched nodes =
  c.Counters.cache_misses <- 1;
  (* Index-seeded runs derive their seeds from the partition, not from
     page reads, so no touch-log footprint can cover a write that would
     change them — install those entries footprint-less (staled by any
     mutation, the conservative pre-footprint rule). *)
  let clusters =
    if c.Counters.index_entries > 0 then None
    else begin
      let pids = Array.of_seq (Hashtbl.to_seq_keys touched) in
      Array.sort compare pids;
      Some pids
    end
  in
  c.Counters.cache_evictions <- add ?clusters store path ~count:(List.length nodes) nodes

(* Proactive cluster-granular invalidation: drop this store's entries
   whose footprint intersects [touched] (entries without a footprint are
   staled by any write). Writer jobs call this at commit so the
   [cluster_stales] counter reports exactly how much cached state one
   update killed — the lazy {!find}-time check would drop the same
   entries eventually. *)
let stale_clusters store touched =
  if Array.length touched = 0 then 0
  else begin
    let uid = Store.uid store in
    let victims = ref [] in
    let cursor = ref sentinel.next in
    while !cursor != sentinel do
      let e = !cursor in
      cursor := e.next;
      let euid, _, _ = e.key in
      if euid = uid then begin
        let hit =
          match e.clusters with
          | None -> true
          | Some pids ->
            Array.exists (fun pid -> Array.exists (fun t -> t = pid) touched) pids
        in
        if hit then victims := e :: !victims
      end
    done;
    List.iter
      (fun e ->
        drop e;
        incr stales_ref)
      !victims;
    List.length !victims
  end

let clear () =
  Hashtbl.reset table;
  sentinel.next <- sentinel;
  sentinel.prev <- sentinel;
  size_ref := 0

let stats () =
  { hits = !hits_ref; misses = !misses_ref; evictions = !evictions_ref; stales = !stales_ref }

let reset_stats () =
  hits_ref := 0;
  misses_ref := 0;
  evictions_ref := 0;
  stales_ref := 0
