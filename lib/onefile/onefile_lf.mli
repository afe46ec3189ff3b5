(** OneFile with lock-free progress (paper §III-B).

    A redo-log, word-based TM with no read-set.  Update transactions are
    serialized on [curTx]; losers of the commit CAS help apply the winner's
    write-set with sequence-guarded DCASes, so some thread always makes
    progress.  Over a [Persistent] region this is OneFile-LF PTM (durable
    linearizable, null recovery); over a [Volatile] region it is the STM —
    "the algorithm for the STM is similar, minus the pwbs". *)

include Front.S
