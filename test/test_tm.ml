(* Tests for the TM signature plumbing: sequential oracle TM and the
   transactional allocator. *)

module Seqtm = Tm.Seqtm
module Tm_alloc = Tm.Tm_alloc

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let test_seqtm_roots () =
  let t = Seqtm.create () in
  let r0 = Seqtm.root t 0 in
  ignore
    (Seqtm.update_tx t (fun tx ->
         Seqtm.store tx r0 123;
         0));
  check int "root readable" 123 (Seqtm.read_tx t (fun tx -> Seqtm.load tx r0))

let test_seqtm_read_tx_rejects_store () =
  let t = Seqtm.create () in
  check bool "store rejected" true
    (match Seqtm.read_tx t (fun tx -> Seqtm.store tx (Seqtm.root t 0) 1; 0) with
    | exception Tm.Tm_intf.Store_in_read_tx -> true
    | _ -> false)

let test_alloc_roundtrip () =
  let t = Seqtm.create () in
  ignore
    (Seqtm.update_tx t (fun tx ->
         let a = Seqtm.alloc tx 4 in
         for i = 0 to 3 do
           Seqtm.store tx (a + i) (100 + i)
         done;
         Seqtm.store tx (Seqtm.root t 0) a;
         0));
  let a = Seqtm.read_tx t (fun tx -> Seqtm.load tx (Seqtm.root t 0)) in
  for i = 0 to 3 do
    check int "payload"
      (100 + i)
      (Seqtm.read_tx t (fun tx -> Seqtm.load tx (a + i)))
  done

let test_alloc_reuses_freed_block () =
  let t = Seqtm.create () in
  let first =
    Seqtm.update_tx t (fun tx ->
        let a = Seqtm.alloc tx 4 in
        Seqtm.free tx a;
        a)
  in
  let second = Seqtm.update_tx t (fun tx -> Seqtm.alloc tx 4) in
  check int "same-class free block reused" first second

let test_alloc_distinct_blocks () =
  let t = Seqtm.create () in
  ignore
    (Seqtm.update_tx t (fun tx ->
         let a = Seqtm.alloc tx 4 and b = Seqtm.alloc tx 4 in
         check bool "no overlap" true (abs (a - b) >= Tm_alloc.block_cells 4);
         0))

let test_alloc_size_classes () =
  check int "2 cells for n=1" 2 (Tm_alloc.block_cells 1);
  check int "8 cells for n=4" 8 (Tm_alloc.block_cells 4);
  check int "8 cells for n=7" 8 (Tm_alloc.block_cells 7);
  check int "16 cells for n=8" 16 (Tm_alloc.block_cells 8)

let test_alloc_leak_accounting () =
  let t = Seqtm.create () in
  let live = ref [] in
  ignore
    (Seqtm.update_tx t (fun tx ->
         for _ = 1 to 10 do
           live := Seqtm.alloc tx 3 :: !live
         done;
         0));
  let expected = 10 * Tm_alloc.block_cells 3 in
  let measured =
    Seqtm.update_tx t (fun _tx ->
        (* allocator state is reachable via the same tx ops the TM uses *)
        0)
  in
  ignore measured;
  (* account via the allocator itself through a transaction *)
  let ops_in_tx f = Seqtm.update_tx t (fun tx -> f tx) in
  let allocated =
    ops_in_tx (fun tx ->
        let ops =
          {
            Tm.Tm_intf.aload = (fun a -> Seqtm.load tx a);
            astore = (fun a v -> Seqtm.store tx a v);
          }
        in
        ignore ops;
        0)
  in
  ignore allocated;
  (* free everything and verify full reuse *)
  ignore
    (Seqtm.update_tx t (fun tx ->
         List.iter (fun a -> Seqtm.free tx a) !live;
         0));
  let again = ref [] in
  ignore
    (Seqtm.update_tx t (fun tx ->
         for _ = 1 to 10 do
           again := Seqtm.alloc tx 3 :: !again
         done;
         0));
  let sorted l = List.sort compare l in
  check bool "freed blocks fully reused" true (sorted !live = sorted !again);
  check int "blocks expected" expected (10 * Tm_alloc.block_cells 3)

let test_alloc_rejects_bad_sizes () =
  let t = Seqtm.create () in
  check bool "zero rejected" true
    (match Seqtm.update_tx t (fun tx -> Seqtm.alloc tx 0) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check bool "too large rejected" true
    (match Seqtm.update_tx t (fun tx -> Seqtm.alloc tx (Tm_alloc.max_alloc + 1)) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_alloc_out_of_memory () =
  let t = Seqtm.create ~size:2048 () in
  check bool "oom raises" true
    (match
       Seqtm.update_tx t (fun tx ->
           for _ = 1 to 10_000 do
             ignore (Seqtm.alloc tx 16)
           done;
           0)
     with
    | exception Failure _ -> true
    | _ -> false)

let test_free_rejects_garbage () =
  let t = Seqtm.create () in
  check bool "free outside heap rejected" true
    (match Seqtm.update_tx t (fun tx -> Seqtm.free tx 1; 0) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* A block's header is written once, when the bump pointer carves it:
   [free] leaves it alone, so a block popped from its free list already
   holds its class and the pop logs no header store.  The header is
   durable from the carving commit on, so it still reads its class after
   a crash and recovery, and the block can be freed and popped again. *)
let test_pop_logs_no_header () =
  let module C = Onefile.Core0 in
  let module Region = Pmem.Region in
  let t = C.create ~size:(1 lsl 12) ~max_threads:1 ~ws_cap:16 ~num_roots:2 () in
  let region = C.region t and r0 = C.root t 0 in
  let k =
    (* log2 of the block size, minus one *)
    let rec lg n = if n <= 1 then 0 else 1 + lg (n / 2) in
    lg (Tm_alloc.block_cells 2) - 1
  in
  let alloc_into_root () =
    C.lf_update_tx t (fun tx ->
        let p = C.alloc tx 2 in
        C.store tx r0 p;
        p)
  in
  let free_root p =
    ignore
      (C.lf_update_tx t (fun tx ->
           C.free tx p;
           C.store tx r0 0;
           0))
  in
  let p = alloc_into_root () in
  check int "the carved header holds the class" k (Region.peek region (p - 1)).Pmem.Word.v;
  free_root p;
  check int "popped: the same block" p (alloc_into_root ());
  let logged =
    List.init
      ((C.layout t).Check.Tmcheck.log_len (Region.peek region (C.req_cell t 0)))
      (fun i -> (Region.peek region (C.entry_cell t 0 i)).Pmem.Word.v)
  in
  check bool "the pop's redo log has no header entry" false (List.mem (p - 1) logged);
  check bool "... but the head and the root" true (List.mem r0 logged);
  Region.crash region ~evict_lines:[] ();
  C.recover t;
  check int "header durable across the crash" k (Region.peek region (p - 1)).Pmem.Word.v;
  free_root p;
  check int "freed and popped again" p (alloc_into_root ())

let () =
  Alcotest.run "tm"
    [
      ( "seqtm",
        [
          Alcotest.test_case "roots" `Quick test_seqtm_roots;
          Alcotest.test_case "read-tx rejects store" `Quick test_seqtm_read_tx_rejects_store;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "roundtrip" `Quick test_alloc_roundtrip;
          Alcotest.test_case "reuse freed" `Quick test_alloc_reuses_freed_block;
          Alcotest.test_case "distinct blocks" `Quick test_alloc_distinct_blocks;
          Alcotest.test_case "size classes" `Quick test_alloc_size_classes;
          Alcotest.test_case "leak accounting" `Quick test_alloc_leak_accounting;
          Alcotest.test_case "bad sizes" `Quick test_alloc_rejects_bad_sizes;
          Alcotest.test_case "out of memory" `Quick test_alloc_out_of_memory;
          Alcotest.test_case "free garbage" `Quick test_free_rejects_garbage;
          Alcotest.test_case "pop logs no header" `Quick test_pop_logs_no_header;
        ] );
    ]
