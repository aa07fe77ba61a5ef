module Tree = Xnav_xml.Tree
module Ordpath = Xnav_xml.Ordpath
module Page = Xnav_storage.Page
module Disk = Xnav_storage.Disk

type strategy = Dfs | Bfs | Scattered of int | Explicit of int array

let strategy_to_string = function
  | Dfs -> "dfs"
  | Bfs -> "bfs"
  | Scattered seed -> Printf.sprintf "scattered:%d" seed
  | Explicit _ -> "explicit"

type result = {
  root : Node_id.t;
  first_page : int;
  page_count : int;
  node_count : int;
  border_count : int;
  height : int;
  partition : Path_partition.t;
  node_ids : Node_id.t array;
}

(* Symbolic records: cluster and slot index are fixed at creation, the
   structural references are wired up afterwards. *)
type sym = { cluster : int; idx : int; body : body }

and body = Score of score | Sdown of sdown | Sup of sup

and score = {
  tag : Xnav_xml.Tag.t;
  ordpath : Ordpath.t;
  mutable parent : sym option;
  mutable first_child : sym option;
  mutable last_child : sym option;
  mutable next_sibling : sym option;
  mutable prev_sibling : sym option;
}

and sdown = {
  mutable d_parent : sym option;
  mutable d_next_sibling : sym option;
  mutable d_prev_sibling : sym option;
  mutable d_target : sym option;
}

and sup = {
  mutable u_first_child : sym option;
  mutable u_last_child : sym option;
  mutable u_target : sym option;
  mutable u_owner : sym option;
}

(* Deterministic splitmix64-style PRNG for the Scattered strategy. *)
let make_rng seed =
  let state = ref (Int64.of_int seed) in
  fun () ->
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.logand z 0x3FFFFFFFFFFFFFFFL)

let shuffle rng order =
  let n = Array.length order in
  for i = n - 1 downto 1 do
    let j = rng () mod (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done

let bfs_order nodes_pre =
  let n = Array.length nodes_pre in
  let order = Array.make n 0 in
  let queue = Queue.create () in
  Queue.add nodes_pre.(0) queue;
  let i = ref 0 in
  while not (Queue.is_empty queue) do
    let node = Queue.pop queue in
    order.(!i) <- node.Tree.preorder;
    incr i;
    Array.iter (fun child -> Queue.add child queue) node.Tree.children
  done;
  order

let run ?(strategy = Dfs) ?payload disk doc =
  let node_count = Tree.index doc in
  let nodes_pre = Array.make node_count doc in
  Tree.iter (fun node -> nodes_pre.(node.Tree.preorder) <- node) doc;

  (* Ordpath labels along the tree structure. *)
  let ordpaths = Array.make node_count Ordpath.root in
  let rec label node path =
    ordpaths.(node.Tree.preorder) <- path;
    Array.iteri (fun i child -> label child (Ordpath.child path i)) node.Tree.children
  in
  label doc Ordpath.root;

  (* Exact core-record size for the packing charge. *)
  let core_size pre =
    Node_record.encoded_size
      (Node_record.Core
         {
           tag = nodes_pre.(pre).Tree.tag;
           ordpath = ordpaths.(pre);
           parent = None;
           first_child = None;
           last_child = None;
           next_sibling = None;
           prev_sibling = None;
         })
  in

  (* Assign each node a cluster: either the caller's explicit map, or a
     greedy pack over the strategy's node order. *)
  let payload =
    match payload with
    | Some p -> p
    | None -> Disk.((config disk).page_size) - Page.header_size
  in
  let payload = min payload (Disk.((config disk).page_size) - Page.header_size) in
  let cluster_of = Array.make node_count 0 in
  let cluster_count = ref 0 in
  (match strategy with
  | Explicit assignment ->
    if Array.length assignment <> node_count then
      invalid_arg "Import.run: explicit assignment length differs from node count";
    Array.iteri
      (fun pre cluster ->
        if cluster < 0 then invalid_arg "Import.run: negative cluster id";
        cluster_of.(pre) <- cluster;
        if cluster + 1 > !cluster_count then cluster_count := cluster + 1)
      assignment
  | Dfs | Bfs | Scattered _ ->
    let order =
      match strategy with
      | Dfs -> Array.init node_count (fun i -> i)
      | Bfs -> bfs_order nodes_pre
      | Scattered seed ->
        let order = Array.init node_count (fun i -> i) in
        shuffle (make_rng seed) order;
        order
      | Explicit _ -> assert false
    in
    let used = ref payload in
    Array.iter
      (fun pre ->
        let charge = core_size pre + Node_record.max_overhead in
        if charge > payload then
          invalid_arg "Import.run: page size too small for a single node record";
        if !used + charge > payload then begin
          incr cluster_count;
          used := 0
        end;
        used := !used + charge;
        cluster_of.(pre) <- !cluster_count - 1)
      order);

  (* Symbol creation: per-cluster slot counters and record lists. *)
  let next_idx = Array.make !cluster_count 0 in
  let records : sym list array = Array.make !cluster_count [] in
  let border_count = ref 0 in
  let mk cluster body =
    let idx = next_idx.(cluster) in
    next_idx.(cluster) <- idx + 1;
    let sym = { cluster; idx; body } in
    records.(cluster) <- sym :: records.(cluster);
    (match body with Score _ -> () | Sdown _ | Sup _ -> incr border_count);
    sym
  in

  let cores =
    Array.init node_count (fun pre ->
        mk cluster_of.(pre)
          (Score
             {
               tag = nodes_pre.(pre).Tree.tag;
               ordpath = ordpaths.(pre);
               parent = None;
               first_child = None;
               last_child = None;
               next_sibling = None;
               prev_sibling = None;
             }))
  in

  let core_body sym =
    match sym.body with Score c -> c | Sdown _ | Sup _ -> assert false
  in

  (* Wire up the chain of children of [p], splitting it into per-cluster
     runs linked through Down/Up border pairs. *)
  let build_chain p =
    let children = nodes_pre.(p.Tree.preorder).Tree.children in
    if Array.length children > 0 then begin
      let p_sym = cores.(p.Tree.preorder) in
      let p_core = core_body p_sym in
      (* Group consecutive children by cluster. *)
      let runs = ref [] and current = ref [] and current_cluster = ref (-1) in
      Array.iter
        (fun child ->
          let c = cluster_of.(child.Tree.preorder) in
          if c <> !current_cluster && !current <> [] then begin
            runs := (!current_cluster, List.rev !current) :: !runs;
            current := []
          end;
          current_cluster := c;
          current := child :: !current)
        children;
      runs := (!current_cluster, List.rev !current) :: !runs;
      let runs = List.rev !runs in

      (* Attach run members under [anchor]: sibling links and parents. *)
      let attach_members anchor members =
        let syms = List.map (fun child -> cores.(child.Tree.preorder)) members in
        let rec link = function
          | a :: (b :: _ as rest) ->
            (core_body a).next_sibling <- Some b;
            (core_body b).prev_sibling <- Some a;
            link rest
          | [ _ ] | [] -> ()
        in
        link syms;
        List.iter (fun sym -> (core_body sym).parent <- Some anchor) syms;
        (List.hd syms, List.nth syms (List.length syms - 1))
      in

      (* Close [prev] segment with a Down targeting [up]. Returns the
         Down so the caller can set anchors' last_child. *)
      let set_first anchor sym =
        match anchor.body with
        | Score c -> c.first_child <- Some sym
        | Sup u -> u.u_first_child <- Some sym
        | Sdown _ -> assert false
      in
      let set_last anchor sym =
        match anchor.body with
        | Score c -> c.last_child <- Some sym
        | Sup u -> u.u_last_child <- Some sym
        | Sdown _ -> assert false
      in

      let seg_anchor = ref p_sym and seg_last = ref None in
      List.iteri
        (fun j (kc, members) ->
          if j = 0 && kc = p_sym.cluster then begin
            let first, last = attach_members p_sym members in
            p_core.first_child <- Some first;
            seg_anchor := p_sym;
            seg_last := Some last
          end
          else begin
            let up =
              mk kc
                (Sup { u_first_child = None; u_last_child = None; u_target = None; u_owner = Some p_sym })
            in
            let down =
              mk !seg_anchor.cluster
                (Sdown
                   {
                     d_parent = Some !seg_anchor;
                     d_next_sibling = None;
                     d_prev_sibling = None;
                     d_target = Some up;
                   })
            in
            (match up.body with Sup u -> u.u_target <- Some down | _ -> assert false);
            (* Splice the Down into the closing segment. *)
            (match !seg_last with
            | None -> set_first !seg_anchor down
            | Some last ->
              (core_body last).next_sibling <- Some down;
              (match down.body with
              | Sdown d -> d.d_prev_sibling <- Some last
              | _ -> assert false));
            set_last !seg_anchor down;
            let first, last = attach_members up members in
            set_first up first;
            seg_anchor := up;
            seg_last := Some last
          end)
        runs;
      (* Close the final segment. *)
      match !seg_last with
      | Some last -> set_last !seg_anchor last
      | None -> assert false
    end
  in
  Array.iter build_chain nodes_pre;

  (* Physical layout: one fresh page per cluster, records in idx order. *)
  let first_page = Disk.page_count disk in
  let page_size = Disk.((config disk).page_size) in
  let node_id_of sym = Node_id.make ~pid:(first_page + sym.cluster) ~slot:sym.idx in
  let slot_of cluster = function
    | None -> None
    | Some sym ->
      assert (sym.cluster = cluster);
      Some sym.idx
  in
  let target_of = function Some sym -> node_id_of sym | None -> assert false in
  let concrete cluster sym =
    match sym.body with
    | Score c ->
      Node_record.Core
        {
          tag = c.tag;
          ordpath = c.ordpath;
          parent = slot_of cluster c.parent;
          first_child = slot_of cluster c.first_child;
          last_child = slot_of cluster c.last_child;
          next_sibling = slot_of cluster c.next_sibling;
          prev_sibling = slot_of cluster c.prev_sibling;
        }
    | Sdown d ->
      Node_record.Down
        {
          parent = slot_of cluster d.d_parent;
          next_sibling = slot_of cluster d.d_next_sibling;
          prev_sibling = slot_of cluster d.d_prev_sibling;
          target = target_of d.d_target;
        }
    | Sup u ->
      Node_record.Up
        {
          first_child = slot_of cluster u.u_first_child;
          last_child = slot_of cluster u.u_last_child;
          target = target_of u.u_target;
          owner = target_of u.u_owner;
          continues = false;
        }
  in
  for cluster = 0 to !cluster_count - 1 do
    let pid = Disk.alloc disk in
    assert (pid = first_page + cluster);
    let page = Page.create ~page_size in
    let syms = List.sort (fun a b -> Stdlib.compare a.idx b.idx) records.(cluster) in
    List.iter
      (fun sym ->
        let encoded = Node_record.encode (concrete cluster sym) in
        match Page.insert page encoded with
        | Some slot when slot = sym.idx -> ()
        | Some _ | None -> failwith "Import.run: cluster layout overflowed its page")
      syms;
    Disk.write disk pid (Page.to_bytes page)
  done;

  let node_ids = Array.map node_id_of cores in
  {
    root = node_id_of cores.(0);
    first_page;
    page_count = !cluster_count;
    node_count;
    border_count = !border_count;
    height = Tree.height doc;
    partition = Path_partition.build doc ~node_ids ~ordpaths;
    node_ids;
  }
