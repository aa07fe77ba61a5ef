module Path = Xnav_xpath.Path

type io_operator =
  | Io_schedule of { speculative : bool }
  | Io_scan
  | Io_index of { resolve : int option }

type seeding = All | Dslash | Summary

type t =
  | Simple of { dedup_intermediate : bool }
  | Reordered of { io : io_operator; seeding : seeding }

let simple = Simple { dedup_intermediate = true }

let xschedule ?(speculative = true) ?(seeding = All) () =
  Reordered { io = Io_schedule { speculative }; seeding }
let xscan ?(seeding = All) () = Reordered { io = Io_scan; seeding }
let xindex ?resolve () = Reordered { io = Io_index { resolve }; seeding = All }

let seeding_suffix = function All -> "" | Dslash -> "+dslash" | Summary -> "+summary"

let name = function
  | Simple _ -> "simple"
  | Reordered { io; seeding } ->
    (match io with
    | Io_schedule { speculative = false } -> "xschedule"
    | Io_schedule { speculative = true } -> "xschedule+spec"
    | Io_scan -> "xscan"
    | Io_index _ -> "xindex")
    ^ seeding_suffix seeding

let explain_with ~fused ppf (path, plan) =
  let steps = List.mapi (fun i s -> (i + 1, s)) path in
  match plan with
  | Simple { dedup_intermediate } ->
    Format.fprintf ppf "@[<v>Sort/DedupResult@,";
    List.iter
      (fun (i, s) ->
        Format.fprintf ppf "%s UnnestMap[%d: %a%s]@,"
          (String.make i ' ') i Path.pp_step s
          (if dedup_intermediate then " dedup" else ""))
      (List.rev steps);
    Format.fprintf ppf "%s Contexts@]" (String.make (List.length steps + 1) ' ')
  | Reordered { io; seeding } ->
    Format.fprintf ppf "@[<v>XAssembly%s%s@,"
      (match io with
      | Io_schedule _ -> "(->XSchedule.Q)"
      | Io_scan -> ""
      | Io_index _ -> "(->XIndex.pending)")
      (if seeding = Dslash then " //-opt" else "");
    let chain_depth =
      if fused then begin
        (* One fused operator stands in for the whole chain. *)
        Format.fprintf ppf "  Fused[1..%d: %a]@," (List.length steps)
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
             (fun ppf (i, s) -> Format.fprintf ppf "%d: %a" i Path.pp_step s))
          steps;
        2
      end
      else begin
        List.iter
          (fun (i, s) ->
            Format.fprintf ppf "%s XStep[%d: %a]@," (String.make i ' ') i Path.pp_step s)
          (List.rev steps);
        List.length steps + 1
      end
    in
    let pad = String.make chain_depth ' ' in
    (match io with
    | Io_schedule { speculative } ->
      Format.fprintf ppf "%s XSchedule[k, async I/O%s%s]@,%s  Contexts@]" pad
        (if speculative then ", speculative" else "")
        (if speculative && seeding = Summary then ", summary seeds" else "")
        pad
    | Io_scan ->
      Format.fprintf ppf "%s XScan[sequential%s]@,%s  Contexts(sorted)@]" pad
        (if seeding = Summary then ", summary seeds" else "")
        pad
    | Io_index { resolve } ->
      Format.fprintf ppf "%s XIndex[partition entries%s]@,%s  PathClasses@]" pad
        (match resolve with None -> "" | Some k -> Format.sprintf ", resolve<=%d" k)
        pad)

let explain = explain_with ~fused:true
