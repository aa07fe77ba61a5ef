module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Node_record = Xnav_store.Node_record
module Path_partition = Xnav_store.Path_partition
module Path = Xnav_xpath.Path

type right_node =
  | R_core of { view : Store.view; slot : int; core : Node_record.core }
  | R_entry of { view : Store.view; slot : int }
  | R_pending of Node_id.t
  | R_info of Store.info

type t = {
  s_l : int;
  n_l : Node_id.t;
  left_incomplete : bool;
  s_r : int;
  n_r : right_node;
}

let context view id =
  let slot = id.Node_id.slot in
  match Store.get view slot with
  | Node_record.Core core ->
    { s_l = 0; n_l = id; left_incomplete = false; s_r = 0; n_r = R_core { view; slot; core } }
  | Node_record.Down _ | Node_record.Up _ ->
    invalid_arg "Path_instance.context: context is a border record"

type summary = {
  partition : Path_partition.t;
  links : Node_record.links;  (* register set for the owner reads *)
  masks : int array Lazy.t;  (* class -> feasible-step mask *)
}

(* A mask is one non-negative int, bit [s] for the seeds at step [s];
   longer paths seed [All]. *)
let summary store path =
  if Path.length path > Path_partition.max_steps then None
  else
    let partition = Store.partition store in
    Some
      {
        partition;
        links = Node_record.links ();
        masks = lazy (Path_partition.seed_masks partition path);
      }

(* The feasible-step mask of the [Up] in [slot], from its owner's class
   ([-1], every step, when the owner is no partition entry or its class
   was appended after the masks were computed). A [self] step never
   crosses a border. *)
let slot_mask sm view slot =
  Store.read_links view sm.links slot;
  let c =
    Path_partition.class_at sm.partition ~pid:sm.links.Node_record.owner_pid
      ~slot:sm.links.Node_record.owner_slot
  in
  let masks = Lazy.force sm.masks in
  if c < 0 || c >= Array.length masks then -1 else masks.(c)

(* A top-level loop, so a cluster's seeding allocates only the instances
   it keeps. *)
let rec seed (c : Counters.counters) ~path_len summary view agenda from =
  let slot = Store.next_up view from in
  if slot >= 0 then begin
    let mask = match summary with None -> -1 | Some sm -> slot_mask sm view slot in
    if mask <> 0 then begin
      let id = Store.id_of view slot in
      for step = 0 to path_len - 1 do
        if mask land (1 lsl step) <> 0 then begin
          c.Counters.specs_created <- c.Counters.specs_created + 1;
          Queue.add
            { s_l = step; n_l = id; left_incomplete = true; s_r = step; n_r = R_entry { view; slot } }
            agenda
        end
      done
    end;
    seed c ~path_len summary view agenda (slot + 1)
  end

let speculate ctx ~path_len ?summary view agenda =
  seed ctx.Context.counters ~path_len summary view agenda 0

let right_incomplete p =
  match p.n_r with
  | R_pending _ -> true
  | R_entry _ -> true
  | R_core _ | R_info _ -> false

let full ~path_len p = (not p.left_incomplete) && (not (right_incomplete p)) && p.s_r = path_len

let right_id p =
  match p.n_r with
  | R_core { view; slot; _ } -> Store.id_of view slot
  | R_entry { view; slot } -> Store.id_of view slot
  | R_pending id -> id
  | R_info info -> info.Store.id

let pp ppf p =
  let kind =
    match p.n_r with
    | R_core _ -> "core"
    | R_entry _ -> "entry"
    | R_pending _ -> "pending"
    | R_info _ -> "info"
  in
  Format.fprintf ppf "(%d,%a%s)-(%d,%a:%s)" p.s_l Node_id.pp p.n_l
    (if p.left_incomplete then "?" else "")
    p.s_r Node_id.pp (right_id p) kind
