(** Signatures shared by every transactional memory in this repository.

    All TMs manage a {!Pmem.Region}: a flat array of TMType cells addressed
    by word offsets ([int]).  Values are OCaml ints; pointers are word
    offsets; [0] is the null pointer (cell 0 is never allocated).  The same
    data-structure functors therefore run over OneFile (lock-free and
    wait-free, volatile and persistent), the blocking baselines, and the
    sequential oracle. *)

exception Abort
(** Internal control flow: the transaction observed an inconsistent value
    and must restart.  Raised by load interposition, caught by the
    [read_tx]/[update_tx] drivers.  User transaction code must not catch
    it (catching and ignoring it would break opacity). *)

exception Store_in_read_tx
(** Raised when user code calls [store]/[alloc]/[free] inside [read_tx]. *)

module type S = sig
  type t
  (** A TM instance: a region plus the metadata of this algorithm. *)

  type tx
  (** Per-transaction context handed to the user function. *)

  val name : string

  val read_tx : t -> (tx -> int) -> int
  (** Run a read-only transaction.  The function may be re-executed; it must
      be pure apart from interposed loads. *)

  val update_tx : t -> (tx -> int) -> int
  (** Run a mutative transaction.  The function may be re-executed (and, in
      the wait-free algorithm, executed by a helping thread); it must have
      no effects other than interposed loads/stores/alloc/free. *)

  val load : tx -> int -> int
  val store : tx -> int -> int -> unit

  val alloc : tx -> int -> int
  (** [alloc tx n] returns the address of [n] fresh cells, transactionally:
      if the transaction does not commit (or the system crashes before it
      does), the allocation never happened. *)

  val free : tx -> int -> unit
  (** Transactional inverse of [alloc]. *)

  val root : t -> int -> int
  (** [root t i] is the address of persistent root slot [i] (stable across
      crashes). *)

  val num_roots : t -> int
  val region : t -> Pmem.Region.t
end

(** Implementation-side handle used by {!Tm_alloc}: raw transactional
    load/store bound to the current transaction. *)
type alloc_ops = { aload : int -> int; astore : int -> int -> unit }

(** Wait-free snapshot-read primitives of a TM instance, when it has them
    (OneFile's epoch-stamped version store).  [snap_pin] publishes a read
    epoch for the calling thread and returns it; [snap_load inst epoch
    addr] resolves [addr] at that epoch without aborting, retrying or
    flushing; [snap_unpin] releases the epoch.  Used by {!Tm_shard} to
    assemble cross-shard snapshot reads from per-shard epoch pins.
    [snap_load inst max_int addr], at an epoch past every commit, needs
    no pin and returns [addr]'s current word.  That word is a committed
    value only where no commit can run on the instance, as on a shard
    that the caller's cross-shard batch holds locked. *)
type 'a snapshot_ops = {
  snap_pin : 'a -> int;
  snap_load : 'a -> int -> int -> int;
  snap_unpin : 'a -> unit;
}
