(** Scheduler-aware atomic references.

    Same semantics as [Stdlib.Atomic], except every operation is a
    {!Sched.step_point}: under a simulation it is a scheduling point, under
    real domains it is a plain atomic operation.  All shared mutable state
    in the concurrent algorithms of this repository lives in these cells, so
    the simulator controls exactly the interleaving of shared accesses.

    A CAS on a cell holding an immutable boxed pair is this repository's
    stand-in for the x86 [CMPXCHG16B] double-word CAS (see DESIGN.md §2). *)

type 'a t

val make : 'a -> 'a t
val get : 'a t -> 'a
val set : 'a t -> 'a -> unit
val exchange : 'a t -> 'a -> 'a

val compare_and_set : 'a t -> 'a -> 'a -> bool
(** Physical-equality compare-and-set, as [Atomic.compare_and_set]. *)

val fetch_and_add : int t -> int -> int
val incr : int t -> unit
val decr : int t -> unit

val get_relaxed : 'a t -> 'a
(** Read without consuming a scheduling step.  Only for debug inspection and
    single-threaded checkers; never inside a concurrent algorithm.

    [tm_lint] restricts the [_relaxed] accessors (and {!Pmem.Region}'s
    peeks) to files carrying a [(* relaxed-ok: ... *)] marker, because an
    access that is not a step point is invisible to the deterministic
    scheduler and silently shrinks the interleaving space it explores. *)
