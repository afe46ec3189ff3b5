(* relaxed-ok: [clock] is also read by the step-free debug view; every
   synchronizing read goes through Satomic.get. *)
(* mutable-ok: tx records are confined to their owning fiber; [txs] is
   grown in sequential set-up code only. *)
module Region = Pmem.Region
module Word = Pmem.Word
module Pstats = Pmem.Pstats
open Runtime

exception Abort = Tm.Tm_intf.Abort

let name = "TinySTM"

(* Lock word encoding: even value [2v] = unlocked at version [v];
   odd value [2*tid + 1] = locked by thread [tid]. *)

type t = {
  region : Region.t;
  locks : int Satomic.t array;
  lock_mask : int;
  clock : int Satomic.t;
  roots_base : int;
  num_roots : int;
  alloc : Tm.Tm_alloc.t;
  mutable txs : tx array;
}

and tx = {
  inst : t;
  me : int;
  mutable rv : int;
  mutable read_only : bool;
  read_locks : Ivec.t; (* lock index *)
  read_vers : Ivec.t; (* lock value observed *)
  undo_addrs : Ivec.t;
  undo_vals : Ivec.t;
  owned_locks : Ivec.t; (* lock index *)
  owned_old : Ivec.t; (* lock value before acquisition *)
}

let create ?(size = 1 lsl 18) ?(num_roots = 8) ?(lock_bits = 16)
    ?(max_threads = 64) () =
  let region = Region.create ~mode:Region.Volatile size in
  let roots_base = 1 in
  let meta_base = roots_base + num_roots in
  let heap_base = meta_base + Tm.Tm_alloc.meta_cells in
  let alloc = Tm.Tm_alloc.create ~meta_base ~heap_base ~heap_end:size in
  let inst =
    {
      region;
      locks = Array.init (1 lsl lock_bits) (fun _ -> Satomic.make 0);
      lock_mask = (1 lsl lock_bits) - 1;
      clock = Satomic.make 0;
      roots_base;
      num_roots;
      alloc;
      txs = [||];
    }
  in
  inst.txs <-
    Array.init max_threads (fun me ->
        {
          inst;
          me;
          rv = 0;
          read_only = true;
          read_locks = Ivec.create ();
          read_vers = Ivec.create ();
          undo_addrs = Ivec.create ();
          undo_vals = Ivec.create ();
          owned_locks = Ivec.create ();
          owned_old = Ivec.create ();
        });
  let init_ops =
    {
      Tm.Tm_intf.aload = (fun a -> (Region.load region a).Word.v);
      astore = (fun a v -> Region.store region a (Word.make v 0));
    }
  in
  Tm.Tm_alloc.init inst.alloc init_ops;
  inst

let clock t = Satomic.get_relaxed t.clock
let marker_of tid = (2 * tid) + 1
let lock_index t addr = addr land t.lock_mask

let reset_tx tx =
  Ivec.clear tx.read_locks;
  Ivec.clear tx.read_vers;
  Ivec.clear tx.undo_addrs;
  Ivec.clear tx.undo_vals;
  Ivec.clear tx.owned_locks;
  Ivec.clear tx.owned_old

(* Read-set validation: every lock observed is unchanged, or now held by
   this transaction. *)
let validate tx =
  let mine = marker_of tx.me in
  let ok = ref true in
  for i = 0 to Ivec.len tx.read_locks - 1 do
    let cur = Satomic.get tx.inst.locks.(Ivec.get tx.read_locks i) in
    if cur <> Ivec.get tx.read_vers i && cur <> mine then ok := false
  done;
  !ok

let extend tx =
  let new_rv = Satomic.get tx.inst.clock in
  if validate tx then tx.rv <- new_rv else raise Abort

let load tx addr =
  let inst = tx.inst in
  let li = lock_index inst addr in
  let lv = Satomic.get inst.locks.(li) in
  if lv land 1 = 1 then
    if lv = marker_of tx.me then (Region.load inst.region addr).Word.v
    else raise Abort (* locked by another thread *)
  else begin
    let v = (Region.load inst.region addr).Word.v in
    let lv' = Satomic.get inst.locks.(li) in
    if lv' <> lv then raise Abort;
    if lv lsr 1 > tx.rv then extend tx;
    Ivec.push tx.read_locks li;
    Ivec.push tx.read_vers lv;
    v
  end

let store tx addr v =
  if tx.read_only then raise Tm.Tm_intf.Store_in_read_tx;
  let inst = tx.inst in
  let li = lock_index inst addr in
  let mine = marker_of tx.me in
  let lv = Satomic.get inst.locks.(li) in
  if lv <> mine then begin
    if lv land 1 = 1 then raise Abort;
    if lv lsr 1 > tx.rv then extend tx;
    if not (Satomic.compare_and_set inst.locks.(li) lv mine) then raise Abort;
    Ivec.push tx.owned_locks li;
    Ivec.push tx.owned_old lv
  end;
  Ivec.push tx.undo_addrs addr;
  Ivec.push tx.undo_vals (Region.load inst.region addr).Word.v;
  Region.store inst.region addr (Word.make v 0)

let rollback tx =
  let inst = tx.inst in
  for i = Ivec.len tx.undo_addrs - 1 downto 0 do
    Region.store inst.region (Ivec.get tx.undo_addrs i)
      (Word.make (Ivec.get tx.undo_vals i) 0)
  done;
  for i = 0 to Ivec.len tx.owned_locks - 1 do
    Satomic.set inst.locks.(Ivec.get tx.owned_locks i) (Ivec.get tx.owned_old i)
  done

let commit tx =
  let inst = tx.inst in
  if Ivec.len tx.owned_locks > 0 then begin
    let wv = Satomic.fetch_and_add inst.clock 1 + 1 in
    if not (validate tx) then raise Abort;
    for i = 0 to Ivec.len tx.owned_locks - 1 do
      Satomic.set inst.locks.(Ivec.get tx.owned_locks i) (2 * wv)
    done
  end

let stats t = Region.stats t.region

let update_tx inst f =
  let tx = inst.txs.(Sched.self ()) in
  let st = stats inst in
  let rec attempt cap =
    reset_tx tx;
    tx.read_only <- false;
    tx.rv <- Satomic.get inst.clock;
    match
      let r = f tx in
      commit tx;
      r
    with
    | r ->
        if Ivec.len tx.owned_locks > 0 then st.Pstats.commits <- st.Pstats.commits + 1;
        r
    | exception Abort ->
        rollback tx;
        st.Pstats.aborts <- st.Pstats.aborts + 1;
        attempt (Backoff.once cap)
  in
  attempt 1

let read_tx inst f =
  let tx = inst.txs.(Sched.self ()) in
  let st = stats inst in
  let rec attempt cap =
    reset_tx tx;
    tx.read_only <- true;
    tx.rv <- Satomic.get inst.clock;
    match f tx with
    | r -> r
    | exception Abort ->
        st.Pstats.aborts <- st.Pstats.aborts + 1;
        attempt (Backoff.once cap)
  in
  attempt 1

let alloc_ops tx =
  { Tm.Tm_intf.aload = (fun a -> load tx a); astore = (fun a v -> store tx a v) }

let alloc tx n =
  if tx.read_only then raise Tm.Tm_intf.Store_in_read_tx;
  Tm.Tm_alloc.alloc tx.inst.alloc (alloc_ops tx) n

let free tx a =
  if tx.read_only then raise Tm.Tm_intf.Store_in_read_tx;
  Tm.Tm_alloc.free tx.inst.alloc (alloc_ops tx) a

let root inst i =
  if i < 0 || i >= inst.num_roots then invalid_arg "Tinystm.root";
  inst.roots_base + i

let num_roots inst = inst.num_roots
let region inst = inst.region
