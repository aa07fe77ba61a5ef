module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Node_record = Xnav_store.Node_record

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

(* A top-level loop, so a cluster's seeding allocates only its
   instances. *)
let rec seed (c : Counters.counters) ~path_len view agenda = function
  | [] -> ()
  | slot :: rest ->
    let id = Store.id_of view slot in
    for step = 0 to path_len - 1 do
      c.Counters.specs_created <- c.Counters.specs_created + 1;
      Queue.add
        { s_l = step; n_l = id; left_incomplete = true; s_r = step; n_r = R_entry { view; slot } }
        agenda
    done;
    seed c ~path_len view agenda rest

let speculate ctx ~path_len view agenda =
  seed ctx.Context.counters ~path_len view agenda (Store.up_slots view)

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
