type t = { pid : int; slot : int }

let make ~pid ~slot = { pid; slot }
let cluster id = id.pid
let equal a b = a.pid = b.pid && a.slot = b.slot

let compare a b =
  match Stdlib.compare a.pid b.pid with
  | 0 -> Stdlib.compare a.slot b.slot
  | c -> c

let hash a = (a.pid * 65599) + a.slot
let pp ppf id = Format.fprintf ppf "%d.%d" id.pid id.slot
let to_string id = Format.asprintf "%a" pp id

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* A duplicate filter over NodeIDs: one bitmap per page, indexed by
   slot and grown to the highest slot seen. Consecutive ids mostly share
   a page, so the last page's bitmap is kept at hand and most tests cost
   one bit operation instead of a hash-table probe. *)
module Seen = struct
  type id = t
  type t = { pages : (int, Bytes.t) Hashtbl.t; mutable last_pid : int; mutable last : Bytes.t }

  let create () = { pages = Hashtbl.create 16; last_pid = -1; last = Bytes.empty }

  (* Page [pid]'s bitmap, covering at least [slot]. *)
  let bitmap s pid slot =
    let bits =
      if pid = s.last_pid then s.last
      else match Hashtbl.find s.pages pid with b -> b | exception Not_found -> Bytes.empty
    in
    let bits =
      if slot lsr 3 < Bytes.length bits then bits
      else begin
        let grown = Bytes.make (max (2 * Bytes.length bits) ((slot lsr 3) + 1)) '\000' in
        Bytes.blit bits 0 grown 0 (Bytes.length bits);
        Hashtbl.replace s.pages pid grown;
        grown
      end
    in
    s.last_pid <- pid;
    s.last <- bits;
    bits

  let add s (id : id) =
    let bits = bitmap s id.pid id.slot in
    let byte = Char.code (Bytes.get bits (id.slot lsr 3)) and mask = 1 lsl (id.slot land 7) in
    if byte land mask <> 0 then false
    else begin
      Bytes.set bits (id.slot lsr 3) (Char.unsafe_chr (byte lor mask));
      true
    end
end
