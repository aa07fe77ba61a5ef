(* Clock, seeded generator, order statistics and JSON output shared by
   the workloads and the run loop. *)

(* Seconds on the monotonic clock: wall time, which only decides how long
   a run goes on. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Seconds of CPU time the process has used, user plus system, at
   nanosecond resolution (cpu_clock.c): the clock every measurement is
   taken on. The suite runs on one thread and never waits for a device —
   the disk is simulated — so on a core of its own this is the time a
   caller of the engine waits for. On a busy machine it leaves out the time
   the process waited for a core while other processes ran, which
   measures the neighbours, not the code. *)
external cpu : unit -> (float[@unboxed])
  = "perfbench_cpu_seconds_byte" "perfbench_cpu_seconds"
[@@noalloc]

let timed f =
  let t0 = cpu () in
  let v = f () in
  (v, cpu () -. t0)

(* --- seeded generator ----------------------------------------------------- *)

(* The 48-bit drand48 LCG. Everything a run generates from [--seed]
   (statement and job orders, popularity ranks, writer operations) comes
   from one of these, seeded from the run seed and a per-purpose salt, so
   one seed always yields the same inputs. *)
type rng = { mutable state : int }

let mask48 = 0xFFFFFFFFFFFF

let rng ~seed salt = { state = ((Hashtbl.hash (seed, salt) lsl 16) lor 0x330E) land mask48 }

let bits r =
  r.state <- ((r.state * 0x5DEECE66D) + 0xB) land mask48;
  r.state lsr 17

let int r bound = bits r mod bound

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* --- order statistics ------------------------------------------------------ *)

(* Nearest-rank percentile, [p] in [0, 100]; 0 on no samples. *)
let percentile xs p =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile xs 50.0

let geomean = function
  | [] -> 0.0
  | xs ->
    exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

let ratio a b = if b = 0.0 then 0.0 else a /. b
let per a n = if n = 0 then 0.0 else a /. float_of_int n

(* --- JSON output ----------------------------------------------------------- *)

let jstring s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* All the digits a double carries; non-finite values have no JSON
   spelling and mean a broken measurement. *)
let jfloat v =
  if not (Float.is_finite v) then failwith (Printf.sprintf "non-finite measurement %h" v);
  Printf.sprintf "%.17g" v

let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstring k ^ ":" ^ v) fields) ^ "}"
