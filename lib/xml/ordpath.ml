type t = int array

(* Invariant: non-empty, last component odd. Even components are carets
   inserted by [between]; they do not count as tree levels. *)

let root = [| 1 |]

let is_odd x = x land 1 = 1 || x land 1 = -1

let check_valid label =
  if Array.length label = 0 then invalid_arg "Ordpath: empty label";
  if not (is_odd label.(Array.length label - 1)) then
    invalid_arg "Ordpath: label must end in an odd component"

let append label comp =
  let n = Array.length label in
  let result = Array.make (n + 1) 0 in
  Array.blit label 0 result 0 n;
  result.(n) <- comp;
  result

let child parent k =
  if k < 0 then invalid_arg "Ordpath.child: negative index";
  append parent ((2 * k) + 1)

let with_last label f =
  let n = Array.length label in
  let result = Array.copy label in
  result.(n - 1) <- f label.(n - 1);
  result

let next_sibling label = with_last label (fun x -> x + 2)
let prev_sibling label = with_last label (fun x -> x - 2)

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i = la && i = lb then 0
    else if i = la then -1 (* proper prefix: ancestor first *)
    else if i = lb then 1
    else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
    else go (i + 1)
  in
  go 0

let equal a b = compare a b = 0

(* [prefix_with a i tail] is the first [i] components of [a] followed by
   [tail], normalised to end in an odd component. *)
let prefix_with a i tail =
  let tail = if is_odd tail.(Array.length tail - 1) then tail else Array.append tail [| 1 |] in
  Array.append (Array.sub a 0 i) tail

let between a b =
  if compare a b >= 0 then invalid_arg "Ordpath.between: arguments not ordered";
  let la = Array.length a and lb = Array.length b in
  let rec diverge i = if i < la && i < lb && a.(i) = b.(i) then diverge (i + 1) else i in
  let i = diverge 0 in
  if i = la then
    (* [a] is an ancestor of [b]: slot a new node just before [b]'s
       component, under [a]. *)
    prefix_with b i [| b.(i) - 1 |]
  else begin
    let xa = a.(i) and xb = b.(i) in
    if xb - xa >= 2 then
      (* Room at this position; prefer an odd component (no caret). *)
      let v = if is_odd (xa + 1) then xa + 1 else if xa + 2 < xb then xa + 2 else xa + 1 in
      prefix_with a i [| v |]
    else if is_odd xa then
      (* xb = xa + 1 is an even caret of [b]; descend on the [b] side. *)
      prefix_with b (i + 1) [| b.(i + 1) - 1 |]
    else
      (* xa is an even caret of [a]; extend past [a]'s caret tail. *)
      let tail = Array.sub a i (la - i) in
      let tail = with_last tail (fun x -> x + 2) in
      prefix_with a i tail
  end

let is_ancestor_or_self a b =
  let la = Array.length a in
  la <= Array.length b
  &&
  let rec go i = i = la || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let level label =
  let odds = Array.fold_left (fun acc c -> if is_odd c then acc + 1 else acc) 0 label in
  odds - 1

let components label = Array.copy label

let of_components comps =
  check_valid comps;
  Array.copy comps

(* Binary codec: LEB128 component count, then zig-zag LEB128 components. *)

let zigzag x = (x lsl 1) lxor (x asr 62)
let unzigzag x = (x lsr 1) lxor (-(x land 1))

let varint_size x =
  let rec go x n = if x < 0x80 then n else go (x lsr 7) (n + 1) in
  go x 1

let encode_varint buf x =
  let rec go x =
    if x < 0x80 then Buffer.add_char buf (Char.chr x)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (x land 0x7f)));
      go (x lsr 7)
    end
  in
  go x

let decode_varint s off =
  let rec go off shift acc =
    let byte = Char.code s.[off] in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte < 0x80 then (acc, off + 1) else go (off + 1) (shift + 7) acc
  in
  go off 0 0

let encode buf label =
  encode_varint buf (Array.length label);
  Array.iter (fun c -> encode_varint buf (zigzag c)) label

let encoded_size label =
  Array.fold_left
    (fun acc c -> acc + varint_size (zigzag c))
    (varint_size (Array.length label))
    label

let decode s off =
  let n, off = decode_varint s off in
  let label = Array.make n 0 in
  let off = ref off in
  for i = 0 to n - 1 do
    let c, next = decode_varint s !off in
    label.(i) <- unzigzag c;
    off := next
  done;
  (label, !off)

(* [decode] straight from a byte buffer, in one pass and without the
   tuples and closures [decode_varint] costs: the store reads labels in
   place from pinned pages. *)
let decode_bytes b off =
  let pos = ref off in
  let n = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    let byte = Char.code (Bytes.get b !pos) in
    n := !n lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    incr pos;
    more := byte >= 0x80
  done;
  let label = Array.make !n 0 in
  for i = 0 to !n - 1 do
    let c = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      let byte = Char.code (Bytes.get b !pos) in
      c := !c lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      incr pos;
      more := byte >= 0x80
    done;
    label.(i) <- unzigzag !c
  done;
  label

let pp ppf label =
  Array.iteri
    (fun i c -> if i = 0 then Format.fprintf ppf "%d" c else Format.fprintf ppf ".%d" c)
    label

let to_string label = Format.asprintf "%a" pp label
