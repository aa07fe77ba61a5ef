type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Malformed of string

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    if not (Float.is_finite f) then raise (Malformed (Printf.sprintf "non-finite float %h" f));
    Buffer.add_string b (Printf.sprintf "%.6f" f)
  | String s -> add_string b s
  | List items -> add_seq b '[' ']' (add b) items
  | Obj fields ->
    add_seq b '{' '}'
      (fun (k, v) ->
        add_string b k;
        Buffer.add_char b ':';
        add b v)
      fields

and add_seq : 'a. Buffer.t -> char -> char -> ('a -> unit) -> 'a list -> unit =
 fun b opening closing item xs ->
  Buffer.add_char b opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      item x)
    xs;
  Buffer.add_char b closing

let to_string v =
  let b = Buffer.create 4096 in
  add b v;
  Buffer.contents b

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Malformed (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
        incr pos;
        (match peek () with
        | Some (('"' | '\\' | '/') as c) -> Buffer.add_char b c
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some 'b' -> Buffer.add_char b '\b'
        | Some 'f' -> Buffer.add_char b '\012'
        | Some 'u' ->
          if !pos + 4 >= n then fail "truncated unicode escape";
          (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
          | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
          | Some _ -> Buffer.add_char b '?'
          | None -> fail "bad unicode escape");
          pos := !pos + 4
        | Some c -> fail (Printf.sprintf "bad escape '%c'" c)
        | None -> fail "unterminated escape");
        incr pos;
        go ()
      | Some c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  (* The items of an array or object after its opening bracket. *)
  let items closing item =
    skip_ws ();
    if peek () = Some closing then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          go acc
        | Some c when c = closing ->
          incr pos;
          List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" closing)
      in
      go []
  in
  let keyword w v =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected '%s'" w)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '"' -> String (parse_string ())
    | Some '{' ->
      incr pos;
      Obj
        (items '}' (fun () ->
             let k = parse_string () in
             expect ':';
             (k, value ())))
    | Some '[' ->
      incr pos;
      List (items ']' value)
    | Some 't' -> keyword "true" (Bool true)
    | Some 'f' -> keyword "false" (Bool false)
    | Some 'n' -> keyword "null" Null
    | Some _ -> (
      let start = !pos in
      while
        !pos < n
        && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      do
        incr pos
      done;
      if !pos = start then fail "unexpected character";
      let lit = String.sub s start (!pos - start) in
      match (int_of_string_opt lit, float_of_string_opt lit) with
      | Some i, _ when not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit) -> Int i
      | _, Some f -> Float f
      | _ -> fail "bad number")
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let write file v =
  let text = to_string v in
  let oc = open_out file in
  output_string oc text;
  output_char oc '\n';
  close_out oc

let read file =
  let ic = open_in_bin file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  of_string text

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let num = function
  | Int i -> float_of_int i
  | Float f -> f
  | _ -> raise (Malformed "expected a number")

let str = function String s -> s | _ -> raise (Malformed "expected a string")
