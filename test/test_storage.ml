(* Tests for xnav_storage: slotted pages, simulated disk, I/O scheduler,
   buffer manager. *)

module Page = Xnav_storage.Page
module Disk = Xnav_storage.Disk
module Io_scheduler = Xnav_storage.Io_scheduler
module Buffer_manager = Xnav_storage.Buffer_manager
module Store = Xnav_store.Store

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* --- Page ---------------------------------------------------------------- *)

let page_tests =
  [
    Alcotest.test_case "insert then get" `Quick (fun () ->
        let p = Page.create ~page_size:256 in
        let s0 = Option.get (Page.insert p "hello") in
        let s1 = Option.get (Page.insert p "world!") in
        check int "slot0" 0 s0;
        check int "slot1" 1 s1;
        check string "get0" "hello" (Page.get p 0);
        check string "get1" "world!" (Page.get p 1));
    Alcotest.test_case "fills up and refuses politely" `Quick (fun () ->
        let p = Page.create ~page_size:64 in
        let rec fill n = match Page.insert p "0123456789" with Some _ -> fill (n + 1) | None -> n in
        let n = fill 0 in
        check bool "some fit" true (n > 0);
        check bool "none after full" true (Page.insert p (String.make 60 'x') = None));
    Alcotest.test_case "delete frees and insert reuses the slot" `Quick (fun () ->
        let p = Page.create ~page_size:256 in
        let _ = Page.insert p "aaa" in
        let _ = Page.insert p "bbb" in
        Page.delete p 0;
        check bool "mem" false (Page.mem p 0);
        let s = Option.get (Page.insert p "ccc") in
        check int "reused slot" 0 s;
        check string "new content" "ccc" (Page.get p 0);
        check string "untouched" "bbb" (Page.get p 1));
    Alcotest.test_case "compaction reclaims freed space" `Quick (fun () ->
        let p = Page.create ~page_size:128 in
        let big = String.make 40 'x' in
        let s0 = Option.get (Page.insert p big) in
        let _s1 = Option.get (Page.insert p big) in
        Page.delete p s0;
        (* Without compaction there is no contiguous room for another
           40-byte record; insert must compact internally. *)
        check bool "fits after compact" true (Page.insert p big <> None));
    Alcotest.test_case "replace in place and with growth" `Quick (fun () ->
        let p = Page.create ~page_size:128 in
        let s = Option.get (Page.insert p "small") in
        check bool "shrink" true (Page.replace p s "tiny");
        check string "shrunk" "tiny" (Page.get p s);
        check bool "grow" true (Page.replace p s (String.make 30 'g'));
        check string "grown" (String.make 30 'g') (Page.get p s));
    Alcotest.test_case "replace fails cleanly when page is full" `Quick (fun () ->
        let p = Page.create ~page_size:64 in
        let s = Option.get (Page.insert p "0123456789") in
        let rec fill () = if Page.insert p "0123456789" <> None then fill () in
        fill ();
        check bool "no room" false (Page.replace p s (String.make 50 'z'));
        check string "old preserved" "0123456789" (Page.get p s));
    Alcotest.test_case "of_bytes round-trips through to_bytes" `Quick (fun () ->
        let p = Page.create ~page_size:128 in
        let _ = Page.insert p "persist me" in
        let q = Page.of_bytes (Bytes.copy (Page.to_bytes p)) in
        check string "read back" "persist me" (Page.get q 0));
    Alcotest.test_case "get on free slot raises" `Quick (fun () ->
        let p = Page.create ~page_size:128 in
        let s = Option.get (Page.insert p "x") in
        Page.delete p s;
        (match Page.get p s with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument"));
    Alcotest.test_case "create validates page size" `Quick (fun () ->
        (match Page.create ~page_size:8 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument"));
  ]

let page_props =
  let open QCheck2 in
  [
    Test.make ~name:"page: iter sees exactly the live records" ~count:200
      Gen.(
        list_size (int_range 1 30)
          (pair (string_size ~gen:printable (int_range 0 20)) bool))
      (fun operations ->
        let p = Page.create ~page_size:1024 in
        let live = Hashtbl.create 16 in
        List.iter
          (fun (record, delete_after) ->
            match Page.insert p record with
            | None -> ()
            | Some slot ->
              Hashtbl.replace live slot record;
              if delete_after then begin
                Page.delete p slot;
                Hashtbl.remove live slot
              end)
          operations;
        let seen = Hashtbl.create 16 in
        Page.iter (fun slot record -> Hashtbl.replace seen slot record) p;
        Hashtbl.length seen = Hashtbl.length live
        && Hashtbl.fold
             (fun slot record acc ->
               acc && Hashtbl.find_opt seen slot = Some record)
             live true);
  ]

(* --- Disk ----------------------------------------------------------------- *)

let bytes_eq = Alcotest.testable (fun ppf b -> Fmt.string ppf (Bytes.to_string b)) Bytes.equal

let disk_tests =
  [
    Alcotest.test_case "alloc/write/read round-trip" `Quick (fun () ->
        let d = Disk.create () in
        let pid = Disk.alloc d in
        let bytes = Bytes.make (Disk.config d).Disk.page_size 'z' in
        Disk.write d pid bytes;
        check bytes_eq "content" bytes (Disk.read d pid));
    Alcotest.test_case "sequential reads cost only transfer" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 10 do ignore (Disk.alloc d) done;
        Disk.reset_clock d;
        for pid = 0 to 9 do ignore (Disk.read d pid) done;
        let c = Disk.config d in
        let expected = 10.0 *. c.Disk.transfer in
        check bool "cheap" true (abs_float (Disk.elapsed d -. expected) < 1e-9);
        check int "sequential" 10 (Disk.stats d).Disk.sequential_reads);
    Alcotest.test_case "random reads pay seek + rotation" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 100 do ignore (Disk.alloc d) done;
        Disk.reset_clock d;
        ignore (Disk.read d 0);
        ignore (Disk.read d 99);
        let c = Disk.config d in
        check bool "expensive" true (Disk.elapsed d > c.Disk.rotational);
        check int "random count" 1 (Disk.stats d).Disk.random_reads;
        check int "seek distance" 99 (Disk.stats d).Disk.seek_distance);
    Alcotest.test_case "read_cost is monotone in distance" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 200 do ignore (Disk.alloc d) done;
        ignore (Disk.read d 100);
        check bool "farther costs more" true (Disk.read_cost d 190 >= Disk.read_cost d 110);
        check bool "near is cheap" true (Disk.read_cost d 101 < Disk.read_cost d 150));
    Alcotest.test_case "seek cost saturates at seek_max" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 100_000 do ignore (Disk.alloc d) done;
        ignore (Disk.read d 0);
        let c = Disk.config d in
        let bound = c.Disk.seek_max +. c.Disk.rotational +. c.Disk.transfer in
        check bool "bounded" true (Disk.read_cost d 99_999 <= bound +. 1e-12));
    Alcotest.test_case "trace records access order" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 5 do ignore (Disk.alloc d) done;
        Disk.set_trace d true;
        List.iter (fun pid -> ignore (Disk.read d pid)) [ 0; 3; 1; 2 ];
        check (Alcotest.list int) "order" [ 0; 3; 1; 2 ] (Disk.trace d));
    Alcotest.test_case "out-of-range access raises" `Quick (fun () ->
        let d = Disk.create () in
        (match Disk.read d 0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument"));
  ]

(* --- I/O scheduler --------------------------------------------------------- *)

let complete_all sched =
  let rec go acc =
    match Io_scheduler.complete_one sched with
    | None -> List.rev acc
    | Some (pid, _) -> go (pid :: acc)
  in
  go []

let sched_tests =
  [
    Alcotest.test_case "fifo preserves submission order" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 50 do ignore (Disk.alloc d) done;
        let s = Io_scheduler.create ~policy:Io_scheduler.Fifo d in
        List.iter (Io_scheduler.submit s) [ 30; 5; 42; 1 ];
        check (Alcotest.list int) "order" [ 30; 5; 42; 1 ] (complete_all s));
    Alcotest.test_case "elevator sweeps in one direction" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 50 do ignore (Disk.alloc d) done;
        ignore (Disk.read d 10);
        let s = Io_scheduler.create ~policy:Io_scheduler.Elevator d in
        List.iter (Io_scheduler.submit s) [ 30; 5; 42; 12 ];
        check (Alcotest.list int) "order" [ 12; 30; 42; 5 ] (complete_all s));
    Alcotest.test_case "sstf picks the nearest page" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 50 do ignore (Disk.alloc d) done;
        ignore (Disk.read d 20);
        let s = Io_scheduler.create ~policy:Io_scheduler.Sstf d in
        List.iter (Io_scheduler.submit s) [ 45; 18; 30 ];
        check (Alcotest.list int) "order" [ 18; 30; 45 ] (complete_all s));
    Alcotest.test_case "cscan wraps around" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 50 do ignore (Disk.alloc d) done;
        ignore (Disk.read d 40);
        let s = Io_scheduler.create ~policy:Io_scheduler.Cscan d in
        List.iter (Io_scheduler.submit s) [ 45; 5; 42 ];
        check (Alcotest.list int) "order" [ 42; 45; 5 ] (complete_all s));
    Alcotest.test_case "duplicate submissions are absorbed" `Quick (fun () ->
        let d = Disk.create () in
        ignore (Disk.alloc d);
        let s = Io_scheduler.create d in
        Io_scheduler.submit s 0;
        Io_scheduler.submit s 0;
        check int "pending" 1 (Io_scheduler.pending_count s));
    Alcotest.test_case "cancel drops a request" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 3 do ignore (Disk.alloc d) done;
        let s = Io_scheduler.create d in
        Io_scheduler.submit s 1;
        Io_scheduler.submit s 2;
        check bool "was pending" true (Io_scheduler.cancel s 1);
        check bool "gone" false (Io_scheduler.is_pending s 1);
        check (Alcotest.list int) "rest" [ 2 ] (complete_all s));
    Alcotest.test_case "policy name round-trip" `Quick (fun () ->
        List.iter
          (fun p ->
            match Io_scheduler.policy_of_string (Io_scheduler.policy_to_string p) with
            | Some q -> check bool "roundtrip" true (p = q)
            | None -> Alcotest.fail "policy name did not round-trip")
          Io_scheduler.all_policies);
  ]

let sched_props =
  let open QCheck2 in
  [
    Test.make ~name:"scheduler: every policy completes exactly the submitted set" ~count:100
      Gen.(pair (oneofl Io_scheduler.all_policies) (list_size (int_range 1 40) (int_range 0 99)))
      (fun (policy, pids) ->
        let d = Disk.create () in
        for _ = 1 to 100 do ignore (Disk.alloc d) done;
        let s = Io_scheduler.create ~policy d in
        List.iter (Io_scheduler.submit s) pids;
        let unique = List.sort_uniq Stdlib.compare pids in
        let completed = List.sort Stdlib.compare (complete_all s) in
        completed = unique);
    Test.make ~name:"scheduler: elevator total seek distance <= fifo's" ~count:100
      Gen.(list_size (int_range 2 40) (int_range 0 199))
      (fun pids ->
        let run policy =
          let d = Disk.create () in
          for _ = 1 to 200 do ignore (Disk.alloc d) done;
          ignore (Disk.read d 0);
          Disk.reset_clock d;
          let s = Io_scheduler.create ~policy d in
          List.iter (Io_scheduler.submit s) pids;
          ignore (complete_all s);
          (Disk.stats d).Disk.seek_distance
        in
        run Io_scheduler.Elevator <= run Io_scheduler.Fifo);
  ]

(* --- Batched completion ----------------------------------------------------- *)

let with_disk n f =
  let d = Disk.create () in
  let data = Bytes.make (Disk.config d).Disk.page_size ' ' in
  for i = 0 to n - 1 do
    let pid = Disk.alloc d in
    Bytes.set data 0 (Char.chr (65 + (i mod 26)));
    Disk.write d pid data
  done;
  f d

let complete_all_batched ?window ?limit sched =
  let rec go acc =
    match Io_scheduler.complete_batch ?window ?limit sched with
    | None -> List.rev acc
    | Some pages -> go (List.rev_append (List.map fst pages) acc)
  in
  go []

let batch_tests =
  [
    Alcotest.test_case "read_batch charges one access plus per-page transfers" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 100 do ignore (Disk.alloc d) done;
        ignore (Disk.read d 0);
        Disk.reset_clock d;
        let run = [ 40; 42; 45 ] in
        (* Head moves once to page 40 at full cost, then streams: every
           crossed page — 41 and 43..44 included — costs one transfer. *)
        let expected = Disk.read_cost d 40 +. (5.0 *. (Disk.config d).Disk.transfer) in
        let pages = Disk.read_batch d run in
        check (Alcotest.list int) "pages in run order" run (List.map fst pages);
        check bool "cost = first access + (last-first) transfers" true
          (abs_float (Disk.elapsed d -. expected) < 1e-9);
        let s = Disk.stats d in
        check int "one vectored read" 1 s.Disk.batched_reads;
        check int "three pages delivered" 3 s.Disk.batch_pages;
        check int "counted as coalesced" 1 s.Disk.coalesce_runs;
        check int "head ends at the last page" 45 (Disk.head d));
    Alcotest.test_case "read_batch rejects an unsorted run" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 10 do ignore (Disk.alloc d) done;
        (match Disk.read_batch d [ 3; 2 ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument"));
    Alcotest.test_case "duplicate submissions deliver once through batches" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 20 do ignore (Disk.alloc d) done;
        let s = Io_scheduler.create d in
        List.iter (Io_scheduler.submit s) [ 4; 7; 4; 5; 7; 4 ];
        check int "pending absorbs duplicates" 3 (Io_scheduler.pending_count s);
        check (Alcotest.list int) "each page exactly once" [ 4; 5; 7 ]
          (List.sort Stdlib.compare (complete_all_batched ~window:4 s)));
    Alcotest.test_case "limit caps a batch" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 20 do ignore (Disk.alloc d) done;
        let s = Io_scheduler.create d in
        List.iter (Io_scheduler.submit s) [ 1; 2; 3; 4; 5 ];
        (match Io_scheduler.complete_batch ~window:4 ~limit:2 s with
        | Some pages -> check (Alcotest.list int) "two pages only" [ 1; 2 ] (List.map fst pages)
        | None -> Alcotest.fail "expected a batch");
        check int "rest still pending" 3 (Io_scheduler.pending_count s));
    Alcotest.test_case "a gap breaks the run; the window caps its length" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 50 do ignore (Disk.alloc d) done;
        let s = Io_scheduler.create d in
        List.iter (Io_scheduler.submit s) [ 10; 11; 12; 14; 15 ];
        (match Io_scheduler.complete_batch ~window:8 s with
        | Some pages ->
          check (Alcotest.list int) "run stops at the gap" [ 10; 11; 12 ] (List.map fst pages)
        | None -> Alcotest.fail "expected a batch");
        check bool "page past the gap still pending" true (Io_scheduler.is_pending s 14);
        let s2 = Io_scheduler.create d in
        List.iter (Io_scheduler.submit s2) [ 20; 21; 22; 23 ];
        (match Io_scheduler.complete_batch ~window:2 s2 with
        | Some pages ->
          check (Alcotest.list int) "window caps the run" [ 20; 21 ] (List.map fst pages)
        | None -> Alcotest.fail "expected a batch"));
    Alcotest.test_case "batched await_one drains the completion queue" `Quick (fun () ->
        with_disk 8 (fun d ->
            let b = Buffer_manager.create ~capacity:6 d in
            Disk.reset_clock d;
            List.iter (fun pid -> ignore (Buffer_manager.prefetch b pid)) [ 2; 3; 4; 5 ];
            let served = ref [] in
            let rec drain () =
              match Buffer_manager.await_one ~window:8 b with
              | None -> ()
              | Some (pid, frame) ->
                served := pid :: !served;
                Buffer_manager.unfix b frame;
                drain ()
            in
            drain ();
            check (Alcotest.list int) "all pages served once" [ 2; 3; 4; 5 ]
              (List.sort Stdlib.compare !served);
            check int "completion queue empty" 0 (Buffer_manager.completed_count b);
            check int "no pins left" 0 (Buffer_manager.pinned_count b);
            check int "one vectored read" 1 (Disk.stats d).Disk.batched_reads;
            check Alcotest.(option string) "buffer consistent" None
              (Buffer_manager.consistency_error b)));
    Alcotest.test_case "abort_async clears undelivered batch pages" `Quick (fun () ->
        with_disk 8 (fun d ->
            let b = Buffer_manager.create ~capacity:6 d in
            Disk.reset_clock d;
            List.iter (fun pid -> ignore (Buffer_manager.prefetch b pid)) [ 2; 3; 4 ];
            (match Buffer_manager.await_one ~window:8 b with
            | Some (_, frame) -> Buffer_manager.unfix b frame
            | None -> Alcotest.fail "expected a page");
            check bool "entries queued behind the first" true
              (Buffer_manager.completed_count b > 0);
            Buffer_manager.abort_async b;
            check int "queue cleared" 0 (Buffer_manager.completed_count b);
            check int "no pins left" 0 (Buffer_manager.pinned_count b);
            Buffer_manager.reset b;
            check Alcotest.(option string) "buffer consistent" None
              (Buffer_manager.consistency_error b)));
    (* The concurrent-abort path the workload layer exercises: one
       client aborts its async pipeline while another client holds its
       own pin on a page the same batch installed. Only the completion
       queue's pins may be released — the other client's pin (and its
       page) must survive. *)
    Alcotest.test_case "abort_async keeps another client's pins from the same batch" `Quick
      (fun () ->
        with_disk 8 (fun d ->
            let b = Buffer_manager.create ~capacity:8 d in
            Disk.reset_clock d;
            List.iter (fun pid -> ignore (Buffer_manager.prefetch b pid)) [ 2; 3; 4; 5 ];
            match Buffer_manager.await_one ~window:8 b with
            | None -> Alcotest.fail "expected a page"
            | Some (_, frame) ->
              check int "rest of the batch queued" 3 (Buffer_manager.completed_count b);
              (* A second client pins page 4 straight out of the batch:
                 the frame now carries the queue's pin and the client's. *)
              let f4 = Buffer_manager.fix b 4 in
              Buffer_manager.abort_async b;
              check int "queue cleared" 0 (Buffer_manager.completed_count b);
              check int "no requests pending" 0 (Io_scheduler.pending_count (Buffer_manager.scheduler b));
              check Alcotest.(option string) "buffer consistent" None
                (Buffer_manager.consistency_error b);
              (* The abort dropped only the queue's pins: our delivered
                 frame and the second client's pin survive. *)
              check int "client pins survive" 2 (Buffer_manager.pinned_count b);
              check bool "page 4 still resident" true (Buffer_manager.resident b 4);
              Buffer_manager.unfix b frame;
              Buffer_manager.unfix b f4;
              check int "clean after unfix" 0 (Buffer_manager.pinned_count b);
              (* Re-fixing the surviving page is a buffer hit, not a read. *)
              let reads = (Disk.stats d).Disk.reads in
              let f4' = Buffer_manager.fix b 4 in
              Buffer_manager.unfix b f4';
              check int "re-fix reads nothing" reads (Disk.stats d).Disk.reads));
  ]

let batch_props =
  let open QCheck2 in
  [
    Test.make ~name:"sched: elevator sweeps up from the head, then back down" ~count:200
      Gen.(pair (int_range 0 99) (list_size (int_range 1 40) (int_range 0 99)))
      (fun (head, pids) ->
        let d = Disk.create () in
        for _ = 1 to 100 do ignore (Disk.alloc d) done;
        ignore (Disk.read d head);
        let s = Io_scheduler.create ~policy:Io_scheduler.Elevator d in
        List.iter (Io_scheduler.submit s) pids;
        let unique = List.sort_uniq Stdlib.compare pids in
        let up = List.filter (fun p -> p >= head) unique in
        let down = List.filter (fun p -> p < head) unique |> List.rev in
        complete_all s = up @ down);
    Test.make ~name:"sched: cscan sweeps up then wraps to the lowest page" ~count:200
      Gen.(pair (int_range 0 99) (list_size (int_range 1 40) (int_range 0 99)))
      (fun (head, pids) ->
        let d = Disk.create () in
        for _ = 1 to 100 do ignore (Disk.alloc d) done;
        ignore (Disk.read d head);
        let s = Io_scheduler.create ~policy:Io_scheduler.Cscan d in
        List.iter (Io_scheduler.submit s) pids;
        let unique = List.sort_uniq Stdlib.compare pids in
        let up = List.filter (fun p -> p >= head) unique in
        let wrapped = List.filter (fun p -> p < head) unique in
        complete_all s = up @ wrapped);
    Test.make ~name:"sched: sstf breaks equidistant ties toward the lower page" ~count:200
      Gen.(pair (int_range 10 89) (int_range 1 10))
      (fun (head, dist) ->
        let d = Disk.create () in
        for _ = 1 to 100 do ignore (Disk.alloc d) done;
        ignore (Disk.read d head);
        let s = Io_scheduler.create ~policy:Io_scheduler.Sstf d in
        Io_scheduler.submit s (head + dist);
        Io_scheduler.submit s (head - dist);
        match Io_scheduler.complete_one s with
        | Some (pid, _) -> pid = head - dist
        | None -> false);
    Test.make ~name:"sched: window 0 batching is exactly the single-page path" ~count:200
      Gen.(pair (oneofl Io_scheduler.all_policies) (list_size (int_range 1 40) (int_range 0 99)))
      (fun (policy, pids) ->
        let make () =
          let d = Disk.create () in
          for _ = 1 to 100 do ignore (Disk.alloc d) done;
          let s = Io_scheduler.create ~policy d in
          List.iter (Io_scheduler.submit s) pids;
          (d, s)
        in
        let d1, s1 = make () in
        let d2, s2 = make () in
        let one_by_one = complete_all s1 in
        let batched = complete_all_batched ~window:0 s2 in
        one_by_one = batched
        && abs_float (Disk.elapsed d1 -. Disk.elapsed d2) < 1e-12
        && Disk.stats d1 = Disk.stats d2
        && (Disk.stats d2).Disk.batched_reads = 0);
    Test.make ~name:"sched: batches are contiguous runs of at most window pages" ~count:200
      Gen.(
        triple (oneofl Io_scheduler.all_policies) (int_range 1 16)
          (list_size (int_range 1 40) (int_range 0 99)))
      (fun (policy, window, pids) ->
        let d = Disk.create () in
        for _ = 1 to 100 do ignore (Disk.alloc d) done;
        let s = Io_scheduler.create ~policy d in
        List.iter (Io_scheduler.submit s) pids;
        let runs_ok = ref true in
        let delivered = ref [] in
        (* A depth-1 queue is served as a direct read, outside the batch
           counters — count those deliveries separately. *)
        let direct = ref 0 in
        let rec go () =
          let singleton = Io_scheduler.pending_count s = 1 in
          match Io_scheduler.complete_batch ~window s with
          | None -> ()
          | Some pages ->
            let run = List.map fst pages in
            if singleton then begin
              if List.length run <> 1 then runs_ok := false;
              incr direct
            end;
            let rec contiguous = function
              | a :: (b :: _ as rest) -> b = a + 1 && contiguous rest
              | _ -> true
            in
            if not (contiguous run && List.length run <= window) then runs_ok := false;
            delivered := !delivered @ run;
            go ()
        in
        go ();
        !runs_ok
        && List.sort Stdlib.compare !delivered = List.sort_uniq Stdlib.compare pids
        && (Disk.stats d).Disk.batch_pages = List.length !delivered - !direct);
  ]

(* --- Buffer manager -------------------------------------------------------- *)

let buffer_tests =
  [
    Alcotest.test_case "fix misses then hits" `Quick (fun () ->
        with_disk 4 (fun d ->
            let b = Buffer_manager.create ~capacity:4 d in
            let f1 = Buffer_manager.fix b 2 in
            Buffer_manager.unfix b f1;
            let f2 = Buffer_manager.fix b 2 in
            Buffer_manager.unfix b f2;
            let s = Buffer_manager.stats b in
            check int "misses" 1 s.Buffer_manager.misses;
            check int "hits" 1 s.Buffer_manager.hits));
    Alcotest.test_case "a resident probe is not a lookup" `Quick (fun () ->
        with_disk 4 (fun d ->
            let b = Buffer_manager.create ~capacity:4 d in
            Buffer_manager.unfix b (Buffer_manager.fix b 2);
            let before = (Buffer_manager.stats b).Buffer_manager.lookups in
            check bool "2 resident" true (Buffer_manager.resident b 2);
            check bool "3 not resident" false (Buffer_manager.resident b 3);
            check bool "prefetch of a resident page" true
              (Buffer_manager.prefetch b 2 = Buffer_manager.Resident);
            let s = Buffer_manager.stats b in
            check int "lookups unchanged" before s.Buffer_manager.lookups;
            check int "lookups = hits + misses" s.Buffer_manager.lookups
              (s.Buffer_manager.hits + s.Buffer_manager.misses)));
    Alcotest.test_case "eviction happens at capacity, LRU first" `Quick (fun () ->
        with_disk 3 (fun d ->
            let b = Buffer_manager.create ~capacity:2 d in
            List.iter
              (fun pid -> Buffer_manager.unfix b (Buffer_manager.fix b pid))
              [ 0; 1; 2 ];
            (* 0 was least recently used and must be gone. *)
            check bool "0 evicted" false (Buffer_manager.resident b 0);
            check bool "2 resident" true (Buffer_manager.resident b 2)));
    Alcotest.test_case "pinned frames are not evicted" `Quick (fun () ->
        with_disk 3 (fun d ->
            let b = Buffer_manager.create ~capacity:2 d in
            let f0 = Buffer_manager.fix b 0 in
            Buffer_manager.unfix b (Buffer_manager.fix b 1);
            Buffer_manager.unfix b (Buffer_manager.fix b 2);
            check bool "0 still here" true (Buffer_manager.resident b 0);
            Buffer_manager.unfix b f0));
    Alcotest.test_case "Buffer_full when everything is pinned" `Quick (fun () ->
        with_disk 3 (fun d ->
            let b = Buffer_manager.create ~capacity:2 d in
            let f0 = Buffer_manager.fix b 0 in
            let f1 = Buffer_manager.fix b 1 in
            (match Buffer_manager.fix b 2 with
            | exception Buffer_manager.Buffer_full -> ()
            | _ -> Alcotest.fail "expected Buffer_full");
            Buffer_manager.unfix b f0;
            Buffer_manager.unfix b f1));
    Alcotest.test_case "a failed fix reads nothing and counts nothing" `Quick (fun () ->
        with_disk 2 (fun d ->
            let b = Buffer_manager.create ~capacity:1 d in
            let f0 = Buffer_manager.fix b 0 in
            let reads = (Disk.stats d).Disk.reads in
            (match Buffer_manager.fix b 1 with
            | exception Buffer_manager.Buffer_full -> ()
            | _ -> Alcotest.fail "expected Buffer_full");
            check int "no disk read" reads (Disk.stats d).Disk.reads;
            let s = Buffer_manager.stats b in
            check int "one lookup" 1 s.Buffer_manager.lookups;
            check int "lookups = hits + misses" s.Buffer_manager.lookups
              (s.Buffer_manager.hits + s.Buffer_manager.misses);
            Buffer_manager.unfix b f0));
    Alcotest.test_case "prefetch + await_one installs pages" `Quick (fun () ->
        with_disk 6 (fun d ->
            let b = Buffer_manager.create ~capacity:4 d in
            check bool "scheduled" true (Buffer_manager.prefetch b 3 = Buffer_manager.Scheduled);
            check bool "scheduled" true (Buffer_manager.prefetch b 5 = Buffer_manager.Scheduled);
            let served = ref [] in
            let rec drain () =
              match Buffer_manager.await_one b with
              | None -> ()
              | Some (pid, frame) ->
                served := pid :: !served;
                Buffer_manager.unfix b frame;
                drain ()
            in
            drain ();
            check (Alcotest.list int) "both served" [ 3; 5 ]
              (List.sort Stdlib.compare !served);
            check int "async reads" 2 (Buffer_manager.stats b).Buffer_manager.async_reads));
    Alcotest.test_case "prefetch of a resident page is instant" `Quick (fun () ->
        with_disk 2 (fun d ->
            let b = Buffer_manager.create ~capacity:2 d in
            Buffer_manager.unfix b (Buffer_manager.fix b 1);
            check bool "instant" true (Buffer_manager.prefetch b 1 = Buffer_manager.Resident);
            check bool "nothing pending" true (Buffer_manager.await_one b = None)));
    Alcotest.test_case "reset complains about pinned frames" `Quick (fun () ->
        with_disk 2 (fun d ->
            let b = Buffer_manager.create ~capacity:2 d in
            let f = Buffer_manager.fix b 0 in
            (match Buffer_manager.reset b with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "expected Invalid_argument");
            Buffer_manager.unfix b f;
            Buffer_manager.reset b;
            check int "cold" 0 (Buffer_manager.stats b).Buffer_manager.lookups));
    Alcotest.test_case "unfix of unpinned frame raises" `Quick (fun () ->
        with_disk 1 (fun d ->
            let b = Buffer_manager.create d in
            let f = Buffer_manager.fix b 0 in
            Buffer_manager.unfix b f;
            (match Buffer_manager.unfix b f with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "expected Invalid_argument")));
  ]

let buffer_props =
  let open QCheck2 in
  [
    Test.make ~name:"buffer: resident set never exceeds capacity" ~count:100
      Gen.(list_size (int_range 1 60) (int_range 0 19))
      (fun accesses ->
        with_disk 20 (fun d ->
            let b = Buffer_manager.create ~capacity:5 d in
            List.iter (fun pid -> Buffer_manager.unfix b (Buffer_manager.fix b pid)) accesses;
            let resident = ref 0 in
            for pid = 0 to 19 do
              if Buffer_manager.resident b pid then incr resident
            done;
            !resident <= 5));
    Test.make ~name:"buffer: fix always returns the page's bytes" ~count:100
      Gen.(list_size (int_range 1 40) (int_range 0 9))
      (fun accesses ->
        with_disk 10 (fun d ->
            let b = Buffer_manager.create ~capacity:3 d in
            List.for_all
              (fun pid ->
                let f = Buffer_manager.fix b pid in
                let first =
                  Bytes.get (Xnav_storage.Page.to_bytes (Buffer_manager.page f)) 0
                in
                Buffer_manager.unfix b f;
                first = Char.chr (65 + (pid mod 26)))
              accesses));
  ]

let replacement_tests =
  [
    Alcotest.test_case "replacement name round-trip" `Quick (fun () ->
        List.iter
          (fun r ->
            match
              Buffer_manager.replacement_of_string (Buffer_manager.replacement_to_string r)
            with
            | Some back -> check bool "roundtrip" true (r = back)
            | None -> Alcotest.fail "replacement name did not round-trip")
          Buffer_manager.all_replacements);
    Alcotest.test_case "mru evicts the most recent unpinned frame" `Quick (fun () ->
        with_disk 4 (fun d ->
            let b = Buffer_manager.create ~capacity:2 ~replacement:Buffer_manager.Mru d in
            Buffer_manager.unfix b (Buffer_manager.fix b 0);
            Buffer_manager.unfix b (Buffer_manager.fix b 1);
            Buffer_manager.unfix b (Buffer_manager.fix b 2);
            (* MRU victim when 2 arrived was 1; 0 survives. *)
            check bool "0 kept" true (Buffer_manager.resident b 0);
            check bool "1 evicted" false (Buffer_manager.resident b 1)));
    Alcotest.test_case "fifo evicts the first-loaded frame" `Quick (fun () ->
        with_disk 4 (fun d ->
            let b = Buffer_manager.create ~capacity:2 ~replacement:Buffer_manager.Fifo d in
            Buffer_manager.unfix b (Buffer_manager.fix b 0);
            Buffer_manager.unfix b (Buffer_manager.fix b 1);
            (* Re-touch 0: FIFO ignores recency, still evicts 0 first. *)
            Buffer_manager.unfix b (Buffer_manager.fix b 0);
            Buffer_manager.unfix b (Buffer_manager.fix b 2);
            check bool "0 evicted" false (Buffer_manager.resident b 0);
            check bool "1 kept" true (Buffer_manager.resident b 1)));
    Alcotest.test_case "clock gives referenced frames a second chance" `Quick (fun () ->
        with_disk 5 (fun d ->
            let b = Buffer_manager.create ~capacity:2 ~replacement:Buffer_manager.Clock d in
            Buffer_manager.unfix b (Buffer_manager.fix b 0);
            Buffer_manager.unfix b (Buffer_manager.fix b 1);
            Buffer_manager.unfix b (Buffer_manager.fix b 2);
            (* Ring order 0,1: both referenced -> both cleared, 0 evicted. *)
            check bool "0 evicted" false (Buffer_manager.resident b 0);
            check bool "2 resident" true (Buffer_manager.resident b 2)));
    Alcotest.test_case "all replacements behave correctly under random access" `Quick
      (fun () ->
        with_disk 12 (fun d ->
            List.iter
              (fun replacement ->
                let b = Buffer_manager.create ~capacity:4 ~replacement d in
                for i = 0 to 200 do
                  let pid = i * 7 mod 12 in
                  let f = Buffer_manager.fix b pid in
                  check bool "content" true
                    (Bytes.get (Xnav_storage.Page.to_bytes (Buffer_manager.page f)) 0
                    = Char.chr (65 + (pid mod 26)));
                  Buffer_manager.unfix b f
                done)
              Buffer_manager.all_replacements));
  ]

let scan_resist_tests =
  let touch b pid = Buffer_manager.unfix b (Buffer_manager.fix b pid) in
  [
    Alcotest.test_case "a sequential sweep does not flush the hot set" `Quick (fun () ->
        with_disk 40 (fun d ->
            (* Hot set 0-2, each promoted to the main queue by a
               re-reference, then a 20-page one-shot sweep. With 2Q on
               the sweep recycles its own probationary pages once A1
               exceeds Kin; plain LRU flushes the hot set. The knob goes
               through [set_scan_resistant] — the same entry point the
               executor's Context plumbing uses. *)
            let run scan_resistant =
              let b = Buffer_manager.create ~capacity:8 d in
              Buffer_manager.set_scan_resistant b scan_resistant;
              List.iter
                (fun pid ->
                  touch b pid;
                  touch b pid)
                [ 0; 1; 2 ];
              for pid = 10 to 29 do
                touch b pid
              done;
              List.for_all (fun pid -> Buffer_manager.resident b pid) [ 0; 1; 2 ]
            in
            check bool "2q keeps the hot set" true (run true);
            check bool "plain lru flushes it" false (run false)));
    Alcotest.test_case "protected hits count only with the knob on" `Quick (fun () ->
        with_disk 4 (fun d ->
            (* Three fixes of one page: install (probationary), the
               promoting re-reference, then one hit on the now-protected
               frame — exactly one protected hit, and none with 2Q off. *)
            let hits scan_resistant =
              let b = Buffer_manager.create ~capacity:4 ~scan_resistant d in
              touch b 0;
              touch b 0;
              touch b 0;
              (Buffer_manager.stats b).Buffer_manager.scan_resist_hits
            in
            check int "knob on" 1 (hits true);
            check int "knob off" 0 (hits false)));
    Alcotest.test_case "knob off reproduces the exact-LRU victim trace" `Quick (fun () ->
        with_disk 12 (fun d ->
            let capacity = 3 in
            let accesses = [ 0; 1; 2; 0; 3; 4; 1; 5; 0; 6; 2; 7; 3; 8; 0; 9; 1; 10; 11; 4 ] in
            (* Reference model: exact LRU, most recent first. *)
            let expected =
              let order = ref [] and victims = ref [] in
              List.iter
                (fun pid ->
                  if List.mem pid !order then order := pid :: List.filter (( <> ) pid) !order
                  else begin
                    if List.length !order >= capacity then begin
                      let v = List.nth !order (capacity - 1) in
                      victims := v :: !victims;
                      order := List.filter (( <> ) v) !order
                    end;
                    order := pid :: !order
                  end)
                accesses;
              List.rev !victims
            in
            let b = Buffer_manager.create ~capacity d in
            let trace = ref [] in
            Buffer_manager.set_evict_observer b (Some (fun pid -> trace := pid :: !trace));
            List.iter (fun pid -> touch b pid) accesses;
            check (Alcotest.list int) "victim trace" expected (List.rev !trace)));
    Alcotest.test_case "toggling the knob mid-run is safe" `Quick (fun () ->
        with_disk 20 (fun d ->
            (* Probationary pages survive the switch-off (they just become
               ordinary LRU citizens) and the pool keeps serving content
               correctly across both transitions. *)
            let b = Buffer_manager.create ~capacity:4 d in
            Buffer_manager.set_scan_resistant b true;
            for pid = 0 to 9 do
              touch b pid
            done;
            Buffer_manager.set_scan_resistant b false;
            for pid = 10 to 19 do
              touch b pid
            done;
            Buffer_manager.set_scan_resistant b true;
            for i = 0 to 19 do
              let pid = i * 3 mod 20 in
              let f = Buffer_manager.fix b pid in
              check bool "content" true
                (Bytes.get (Xnav_storage.Page.to_bytes (Buffer_manager.page f)) 0
                = Char.chr (65 + (pid mod 26)));
              Buffer_manager.unfix b f
            done;
            check int "no pins leaked" 0 (Buffer_manager.pinned_count b)));
  ]

(* --- Buffer recycling ----------------------------------------------------- *)

(* A disk whose page [i] carries its own byte pattern, so a frame that
   ends up with another page's (recycled) buffer contents shows. *)
let pattern_disk n =
  let d = Disk.create () in
  let size = (Disk.config d).Disk.page_size in
  let pages =
    Array.init n (fun i -> Bytes.init size (fun j -> Char.chr (((i * 37) + j) land 0xff)))
  in
  Array.iter (fun bytes -> Disk.write d (Disk.alloc d) bytes) pages;
  Disk.reset_clock d;
  (d, pages)

let frame_bytes frame = Page.to_bytes (Buffer_manager.page frame)

(* Words allocated straight into the major heap so far. OCaml 5 adds a
   domain's major allocations to [major_words] only at a major slice, and
   its promotions to [promoted_words] at a minor collection, so both are
   forced first; otherwise earlier tests' allocations land late, inside
   the measured span. *)
let direct_major_words () =
  Gc.minor ();
  ignore (Gc.major_slice 0);
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

let recycle_tests =
  [
    Alcotest.test_case "recycled buffers never show another page's bytes" `Quick (fun () ->
        let d, pages = pattern_disk 50 in
        let b = Buffer_manager.create ~capacity:2 d in
        let same what pid frame =
          check bool (Printf.sprintf "%s: page %d bytes" what pid) true
            (Bytes.equal pages.(pid) (frame_bytes frame));
          check Alcotest.(option string) (Printf.sprintf "%s: consistent at %d" what pid) None
            (Buffer_manager.consistency_error b)
        in
        (* Synchronous faults, one frame held across each eviction. *)
        let held = ref (Buffer_manager.fix b 0) in
        for pid = 1 to 49 do
          let f = Buffer_manager.fix b pid in
          same "fix" pid f;
          same "held" (Buffer_manager.frame_pid !held) !held;
          Buffer_manager.unfix b !held;
          held := f
        done;
        Buffer_manager.unfix b !held;
        (* Coalesced batches through the completion queue. *)
        for group = 0 to 12 do
          let run = List.filter (fun pid -> pid < 50) (List.init 4 (fun i -> (4 * group) + i)) in
          List.iter (fun pid -> ignore (Buffer_manager.prefetch b pid)) run;
          let rec drain () =
            match Buffer_manager.await_one ~window:4 b with
            | None -> ()
            | Some (pid, frame) ->
              same "batch" pid frame;
              Buffer_manager.unfix b frame;
              drain ()
          in
          drain ()
        done;
        check bool "batches coalesced" true ((Disk.stats d).Disk.coalesce_runs > 0);
        (* Duplicate arrivals: the page is faulted in synchronously while
           its asynchronous read is still pending, so the arriving copy
           is surplus and goes back to the spare list. *)
        List.iter
          (fun pid ->
            check bool "scheduled" true (Buffer_manager.prefetch b pid = Buffer_manager.Scheduled);
            let f = Buffer_manager.fix b pid in
            (match Buffer_manager.await_one b with
            | Some (pid', f') ->
              check int "same page" pid pid';
              check bool "kept the resident frame" true (f == f');
              same "duplicate" pid f';
              Buffer_manager.unfix b f'
            | None -> Alcotest.fail "expected the duplicate arrival");
            Buffer_manager.unfix b f;
            let g = Buffer_manager.fix b ((pid + 25) mod 50) in
            same "after duplicate" ((pid + 25) mod 50) g;
            Buffer_manager.unfix b g)
          [ 3; 17; 41 ];
        check int "no pins left" 0 (Buffer_manager.pinned_count b);
        Buffer_manager.reset b;
        for pid = 0 to 49 do
          let f = Buffer_manager.fix b pid in
          same "after reset" pid f;
          Buffer_manager.unfix b f
        done;
        (* A released view stays dead once its page is evicted and its
           buffer refilled. *)
        let store, _ =
          Gen.import_store ~page_size:256 ~payload:96 ~capacity:2 (Gen.wide_tree ~children:40 ())
        in
        let first = Store.first_page store in
        let v = Store.view store first in
        Store.release store v;
        for pid = first + 1 to first + Store.page_count store - 1 do
          Store.release store (Store.view store pid)
        done;
        check bool "first page evicted" false (Buffer_manager.resident (Store.buffer store) first);
        check bool "released view raises" true
          (match Store.get v 0 with
          | _ -> false
          | exception Invalid_argument _ -> true));
    Alcotest.test_case "faults on a full pool allocate no page memory" `Quick (fun () ->
        let d, _ = pattern_disk 8 in
        let b = Buffer_manager.create ~capacity:4 d in
        let sweep n =
          for i = 0 to n - 1 do
            Buffer_manager.unfix b (Buffer_manager.fix b (i mod 8))
          done
        in
        sweep 16;
        let misses = (Buffer_manager.stats b).Buffer_manager.misses in
        let before = direct_major_words () in
        sweep 1000;
        let words = direct_major_words () -. before in
        check int "every access faults" 1000
          ((Buffer_manager.stats b).Buffer_manager.misses - misses);
        let page_words = (Disk.config d).Disk.page_size / (Sys.word_size / 8) in
        if words >= float_of_int (2 * page_words) then
          Alcotest.failf "1000 faults put %.0f words straight into the major heap" words);
    Alcotest.test_case "the sweep reports a buffer recycled while pinned" `Quick (fun () ->
        let d, pages = pattern_disk 4 in
        let b = Buffer_manager.create ~capacity:4 d in
        let f0 = Buffer_manager.fix b 0 in
        Disk.recycle d (frame_bytes f0);
        check bool "spare buffer reported" true (Buffer_manager.consistency_error b <> None);
        let f1 = Buffer_manager.fix b 1 in
        check bool "the next read reuses it" true (frame_bytes f0 == frame_bytes f1);
        check bool "page 0 now shows page 1" true (Bytes.equal pages.(1) (frame_bytes f0));
        check bool "shared buffer reported" true (Buffer_manager.consistency_error b <> None);
        Buffer_manager.unfix b f0;
        Buffer_manager.unfix b f1);
  ]

let suite =
  [
    ("storage.page", page_tests);
    Gen.qsuite "storage.page.props" page_props;
    ("storage.disk", disk_tests);
    ("storage.sched", sched_tests);
    Gen.qsuite "storage.sched.props" sched_props;
    ("storage.batch", batch_tests);
    Gen.qsuite "storage.batch.props" batch_props;
    ("storage.buffer", buffer_tests);
    ("storage.replacement", replacement_tests);
    ("storage.2q", scan_resist_tests);
    ("storage.recycle", recycle_tests);
    Gen.qsuite "storage.buffer.props" buffer_props;
  ]
