(* mutable-ok: tx records are confined to their owning fiber; [txs] is
   grown in sequential set-up code only. *)
(* Shared core of RomulusLog and RomulusLR (Correia, Felber, Ramalhete,
   SPAA'18): twin-replica PTM.  The region holds two replicas of the heap;
   an update transaction executes user code in place on one replica
   (recording modified addresses in a volatile log), persists it, then
   copies the modified words to the other replica.  A 3-state persistent
   flag tells recovery which replica is consistent.

   RomulusLog: readers take the reader side of a scalable reader-writer
   lock and read the main replica directly — blocking both ways.

   RomulusLR: readers are wait-free via the left-right technique (two
   read-indicator sets and a version index); writers mutate the replica no
   reader is on, toggle, drain, then patch the other replica.

   User-visible addresses are always in [0, half); the replica offset is
   applied inside the load/store interposition. *)

module Region = Pmem.Region
module Word = Pmem.Word
module Pstats = Pmem.Pstats
module Writeset = Onefile.Writeset
open Runtime

type variant = Log | Lr

(* Persistent state-cell values. *)
let st_idle = 0
let st_mutating side = 1 + side (* replica [side] is being mutated *)
let st_copying cons = 3 + cons (* replica [cons] is consistent, copy it *)

let state_cell = 1

type t = {
  region : Region.t;
  variant : variant;
  half : int;
  roots_base : int;
  num_roots : int;
  heap_base : int;
  alloc : Tm.Tm_alloc.t;
  (* concurrency control *)
  rw : Rwlock.t; (* Log: readers vs writer *)
  wlock : Spinlock.t; (* Lr: writer mutual exclusion *)
  left_right : int Satomic.t; (* Lr: replica readers should use *)
  version_index : int Satomic.t;
  ingress : int Satomic.t array; (* [version]: reader arrivals *)
  egress : int Satomic.t array; (* [version]: reader departures *)
  logs : Writeset.t array; (* per-thread modified-address sets *)
  mutable txs : tx array;
}

and tx = { inst : t; mutable side : int; mutable read_only : bool }

let create ~variant ?(half = 1 lsl 17) ?(num_roots = 8) ?(max_threads = 64) () =
  let region = Region.create ~mode:Region.Persistent (2 * half) in
  let roots_base = 4 in
  let meta_base = roots_base + num_roots in
  let heap_base = meta_base + Tm.Tm_alloc.meta_cells in
  if heap_base + 64 > half then invalid_arg "Romulus.create: half too small";
  let alloc = Tm.Tm_alloc.create ~meta_base ~heap_base ~heap_end:half in
  let inst =
    {
      region;
      variant;
      half;
      roots_base;
      num_roots;
      heap_base;
      alloc;
      rw = Rwlock.create ~max_threads;
      wlock = Spinlock.create ();
      left_right = Satomic.make 0;
      version_index = Satomic.make 0;
      ingress = Array.init 2 (fun _ -> Satomic.make 0);
      egress = Array.init 2 (fun _ -> Satomic.make 0);
      logs = Array.init max_threads (fun _ -> Writeset.create 8192);
      txs = [||];
    }
  in
  inst.txs <-
    Array.init max_threads (fun _ -> { inst; side = 0; read_only = true });
  let init_ops =
    {
      Tm.Tm_intf.aload = (fun a -> (Region.load region a).Word.v);
      astore =
        (fun a v ->
          Region.store region a (Word.make v 0);
          Region.store region (a + half) (Word.make v 0));
    }
  in
  Tm.Tm_alloc.init inst.alloc init_ops;
  Region.pwb_range region 0 heap_base;
  Region.pwb_range region half heap_base;
  Region.pfence region;
  Pstats.reset (Region.stats region);
  inst

let cell inst side addr = (side * inst.half) + addr

let load tx addr =
  (Region.load tx.inst.region (cell tx.inst tx.side addr)).Word.v

let store tx addr v =
  if tx.read_only then raise Tm.Tm_intf.Store_in_read_tx;
  let inst = tx.inst in
  Writeset.put inst.logs.(Sched.self ()) addr 0;
  let c = cell inst tx.side addr in
  Region.store inst.region c (Word.make v 0);
  Region.pwb inst.region c

let set_state ?(fence = true) inst v =
  Region.store inst.region state_cell (Word.make v 0);
  Region.pwb inst.region state_cell;
  if fence then Region.pfence inst.region

(* Copy the logged words from replica [src] to the other replica. *)
let sync_other inst ~src log =
  let region = inst.region in
  let dst = 1 - src in
  Writeset.iter log (fun addr _ ->
      let w = Region.load region (cell inst src addr) in
      let c = cell inst dst addr in
      Region.store region c w;
      Region.pwb region c);
  Region.pfence region

let drain inst vi =
  let rec wait cap =
    if Satomic.get inst.egress.(vi) <> Satomic.get inst.ingress.(vi) then
      wait (Backoff.once cap)
  in
  wait 1

let run_update inst f =
  let me = Sched.self () in
  let tx = inst.txs.(me) in
  let log = inst.logs.(me) in
  Writeset.clear log;
  tx.read_only <- false;
  let finish_log () =
    (* Log variant: mutate main (side 0) in place, then patch the back *)
    tx.side <- 0;
    set_state inst (st_mutating 0);
    let r = f tx in
    Region.pfence inst.region;
    set_state inst (st_copying 0);
    sync_other inst ~src:0 log;
    set_state ~fence:false inst st_idle;
    r
  in
  let finish_lr () =
    let read_side = Satomic.get inst.left_right in
    let write_side = 1 - read_side in
    tx.side <- write_side;
    set_state inst (st_mutating write_side);
    let r = f tx in
    Region.pfence inst.region;
    set_state inst (st_copying write_side);
    (* left-right: move readers over, wait for stragglers, patch *)
    Satomic.set inst.left_right write_side;
    let vi = Satomic.get inst.version_index in
    drain inst (1 - vi);
    Satomic.set inst.version_index (1 - vi);
    drain inst vi;
    sync_other inst ~src:write_side log;
    set_state ~fence:false inst st_idle;
    r
  in
  let st = Region.stats inst.region in
  let r =
    match inst.variant with
    | Log ->
        Rwlock.write_lock inst.rw;
        Fun.protect ~finally:(fun () -> Rwlock.write_unlock inst.rw) finish_log
    | Lr ->
        Spinlock.acquire inst.wlock;
        Fun.protect ~finally:(fun () -> Spinlock.release inst.wlock) finish_lr
  in
  st.Pstats.commits <- st.Pstats.commits + 1;
  r

let run_read inst f =
  let me = Sched.self () in
  let tx = inst.txs.(me) in
  tx.read_only <- true;
  match inst.variant with
  | Log ->
      tx.side <- 0;
      Rwlock.read_lock inst.rw;
      Fun.protect ~finally:(fun () -> Rwlock.read_unlock inst.rw) (fun () -> f tx)
  | Lr ->
      (* wait-free reader arrival *)
      let vi = Satomic.get inst.version_index in
      Satomic.incr inst.ingress.(vi);
      tx.side <- Satomic.get inst.left_right;
      Fun.protect
        ~finally:(fun () -> Satomic.incr inst.egress.(vi))
        (fun () -> f tx)

let alloc_ops tx =
  { Tm.Tm_intf.aload = (fun a -> load tx a); astore = (fun a v -> store tx a v) }

let alloc tx n =
  if tx.read_only then raise Tm.Tm_intf.Store_in_read_tx;
  Tm.Tm_alloc.alloc tx.inst.alloc (alloc_ops tx) n

let free tx a =
  if tx.read_only then raise Tm.Tm_intf.Store_in_read_tx;
  Tm.Tm_alloc.free tx.inst.alloc (alloc_ops tx) a

let root inst i =
  if i < 0 || i >= inst.num_roots then invalid_arg "Romulus.root";
  inst.roots_base + i

let num_roots inst = inst.num_roots
let region inst = inst.region

(* Crash recovery: the volatile log is gone, so patch the whole heap span
   from the consistent replica. *)
let roots_span_start inst = inst.roots_base

let recover inst =
  let region = inst.region in
  let copy ~src =
    let dst = 1 - src in
    for addr = roots_span_start inst to inst.half - 1 do
      Region.store region (cell inst dst addr) (Region.load region (cell inst src addr))
    done;
    Region.pwb_range region (dst * inst.half) inst.half;
    Region.pfence region
  in
  (match (Region.load region state_cell).Word.v with
  | v when v = st_idle -> ()
  | v when v = st_mutating 0 -> copy ~src:1
  | v when v = st_mutating 1 -> copy ~src:0
  | v when v = st_copying 0 -> copy ~src:0
  | v when v = st_copying 1 -> copy ~src:1
  | _ -> failwith "Romulus.recover: corrupt state cell");
  set_state inst st_idle;
  Spinlock.reset inst.wlock;
  Rwlock.reset inst.rw;
  Satomic.set inst.left_right 0;
  Satomic.set inst.version_index 0;
  Array.iter (fun c -> Satomic.set c 0) inst.ingress;
  Array.iter (fun c -> Satomic.set c 0) inst.egress;
  Array.iter Writeset.clear inst.logs
