open Tm_intf

(* Size classes: blocks of 2^(k+1) cells, k in [0, nclasses).  A block's
   header cell stores its class, written once when the block is carved
   from the bump pointer: [free] never changes it, so a block popped from
   free list k still holds k, and a pop logs no header store.  A free
   block's first payload cell links to the next free block of that
   class. *)
let nclasses = 14
let class_cells k = 1 lsl (k + 1)
let max_alloc = class_cells (nclasses - 1) - 1

(* Metadata cells: nclasses free-list heads followed by the bump pointer. *)
let meta_cells = nclasses + 1

type t = { meta_base : int; heap_base : int; heap_end : int }

let create ~meta_base ~heap_base ~heap_end = { meta_base; heap_base; heap_end }
let head_cell t k = t.meta_base + k
let bump_cell t = t.meta_base + nclasses

let init t ops =
  for k = 0 to nclasses - 1 do
    ops.astore (head_cell t k) 0
  done;
  ops.astore (bump_cell t) t.heap_base

let class_of_cells needed =
  (* flowlint: bounded at most nclasses steps: alloc rejects sizes above the largest class *)
  let rec go k = if class_cells k >= needed then k else go (k + 1) in
  go 0

let block_cells n = class_cells (class_of_cells (n + 1))

let alloc t ops n =
  if n <= 0 || n > max_alloc then invalid_arg "Tm_alloc.alloc";
  let k = class_of_cells (n + 1) in
  let head = ops.aload (head_cell t k) in
  if head <> 0 then begin
    let next = ops.aload (head + 1) in
    ops.astore (head_cell t k) next;
    head + 1
  end
  else begin
    let bump = ops.aload (bump_cell t) in
    if bump + class_cells k > t.heap_end then failwith "Tm_alloc: out of memory";
    ops.astore (bump_cell t) (bump + class_cells k);
    ops.astore bump k;
    bump + 1
  end

let free t ops payload =
  let block = payload - 1 in
  if block < t.heap_base || block >= t.heap_end then invalid_arg "Tm_alloc.free";
  let k = ops.aload block in
  if k < 0 || k >= nclasses then failwith "Tm_alloc.free: corrupt header";
  ops.astore (block + 1) (ops.aload (head_cell t k));
  ops.astore (head_cell t k) block

let free_cells t ops =
  let total = ref (t.heap_end - ops.aload (bump_cell t)) in
  for k = 0 to nclasses - 1 do
    let p = ref (ops.aload (head_cell t k)) in
    (* flowlint: bounded walks one free list of the finite heap; introspection only, never on a transaction's path *)
    while !p <> 0 do
      total := !total + class_cells k;
      p := ops.aload (!p + 1)
    done
  done;
  !total

let allocated_cells t ops = t.heap_end - t.heap_base - free_cells t ops
