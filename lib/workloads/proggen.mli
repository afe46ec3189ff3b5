(** Random transaction programs: generation, execution, shrinking.

    The single source of truth for the differential harnesses: the random
    oracle test ([test/test_oracle.ml]) and the schedule/crash explorer
    ({!Explorer}) both generate their workloads here, so a program that one
    of them minimizes replays under the other.

    Programs operate on [value_slots + ptr_slots] root slots: slots
    [0 .. value_slots-1] hold plain values, the rest hold pointers to
    transactionally allocated blocks (null = 0).  Raw addresses never flow
    into results or state comparisons — allocators may place blocks
    differently across TMs — only the markers stored through them do. *)

val value_slots : int
(** 4: slots 0..3. *)

val ptr_slots : int
(** 4: slots 4..7. *)

type op =
  | Load of int  (** value slot *)
  | Store of int * int
  | Add_delta of int * int
  | Alloc_into of int * int * int  (** ptr slot, n cells, marker *)
  | Free_slot of int  (** ptr slot *)
  | Load_through of int  (** ptr slot *)
  | Transfer of int * int * int
      (** value slot, value slot, delta: debit the first, credit the
          second — under a sharded TM the canonical cross-shard shape *)

type txn = { read_only : bool; ops : op list }

type program = txn list

val pp_op : Format.formatter -> op -> unit
val pp_program : Format.formatter -> program -> unit

(** {1 Generation} *)

val gen_program :
  ?max_txns:int ->
  ?max_ops:int ->
  ?transfers:bool ->
  ?transfer_weight:int ->
  ?ro_weight:int ->
  int ->
  program
(** [gen_program seed]: 1 to [max_txns] (default 20) transactions of 1 to
    [max_ops] (default 6) operations each, every 4th transaction read-only
    on average.  Freeing a block allocated earlier in the same transaction
    is degraded to a dereference (legal, and accepted by Tmcheck, but kept
    so every seed's program stays what earlier traces recorded);
    alloc/free interplay across transactions stays fully exercised.
    [transfers] (default [false]) additionally generates two-slot
    {!Transfer} operations — the multi-root shape that crosses shard
    boundaries under {!Tm.Tm_shard}.  [transfer_weight] tunes the
    cross-shard mix precisely: each mutating operation draws a transfer
    with probability [w / (10 + w)] (so [0] disables transfers, [2] is
    the plain [transfers:true] mix of ~17%, [3] is ~23% and [10] is
    50%).  When it is given, [transfers] is ignored.  [ro_weight]
    (default 0) biases the read-only draw the same widening way: a
    transaction is read-only with probability [(1 + w) / (4 + w)] — [0]
    keeps the historical 25%, [4] is ~62% and [16] is 85% — exercising
    the wait-free snapshot-read path under real write churn.  Seed
    streams are stable: [transfers:false] equals [transfer_weight:0],
    [transfers:true] equals [transfer_weight:2], [ro_weight:0] is the
    historical read-only draw, and all defaults generate the exact same
    programs per seed as before the options existed. *)

val split : threads:int -> program -> program array
(** Deal the transactions round-robin onto [threads] per-thread programs
    (transaction [i] goes to thread [i mod threads]), preserving relative
    order within each thread. *)

(** {1 Migration injection}

    Elastic-sharding perturbation for the differential harnesses: a
    {e plan} of {!Tm.Tm_shard} [split]/[merge] calls to fire between the
    program's transactions.  Migrations are invisible to program
    semantics — the sequential oracle needs no knowledge of them — so
    any divergence they introduce is a router bug. *)

type mig_mode =
  | Mig_off  (** no injected migrations (the historical behaviour) *)
  | Mig_every of int  (** one elastic action before every [k]-th txn *)
  | Mig_random of int  (** an action before each txn with probability 1/k *)

type mig_action =
  | Mig_split of int * int  (** arguments for [split ~src ~dst] *)
  | Mig_merge of int * int  (** arguments for [merge ~src ~dst] *)

val pp_mig_action : Format.formatter -> mig_action -> unit

val migration_plan :
  seed:int -> txns:int -> shards:int -> mode:mig_mode ->
  (int * mig_action) list
(** A valid elastic schedule for a [txns]-transaction program over
    [shards] shards: pairs [(i, action)] in ascending [i], the action to
    apply (verbatim, via the router's [split]/[merge]) before executing
    transaction [i].  Every prefix is valid — each merge retires a range
    split earlier in the plan, at most one live split per source shard —
    so every action returns [`Ok] even on a shrunk (shorter) program.
    The plan draws from its own generator: for a given seed the program
    from {!gen_program} is byte-identical whatever the [mode], and
    [Mig_off] (or fewer than 2 shards) yields the empty plan. *)

(** {1 Execution} *)

module Exec (T : Tm.Tm_intf.S) : sig
  val exec_txn : T.t -> txn -> int
  (** Run one transaction (read-only ones under [read_tx]); its result is
      the sum of per-operation results. *)

  val observe : T.t -> int list * int list
  (** Address-independent observable state: value slots verbatim; pointer
      slots as null(-1)/marker-behind-the-pointer. *)

  val run :
    ?before_txn:(T.t -> int -> unit) ->
    (unit -> T.t) ->
    program ->
    int list * (int list * int list)
  (** Fresh instance, execute sequentially, return per-transaction results
      and the final {!observe}.  [before_txn t i] (default: nothing) runs
      before transaction [i] — the hook the differential harnesses use to
      fire a {!migration_plan}'s elastic actions between transactions. *)
end

(** {1 Shrinking} *)

val shrink : fails:(program -> bool) -> program -> program
(** Greedy delta-debugging: repeatedly delete any transaction (then any
    single operation) whose removal keeps [fails] true.  [fails] must hold
    for the input program; it is never called on the empty program. *)
