(** OneFile with bounded wait-free progress (paper §III-E).

    Threads publish each mutative transaction as a closure in a shared
    operations array; an updater aggregates every published-but-uncommitted
    operation into a single write-set, so after at most two commits
    following publication the operation's result is guaranteed to be in the
    results array.  Read-only transactions fall back to publication after
    [read_tries] failed optimistic attempts (4 in the paper).  Closure
    descriptors are reclaimed with hazard eras keyed on transaction
    sequence numbers (§IV-B). *)

include Front.S
