(** Wait-free universal-construction queue — the SimQueue stand-in.

    Threads announce operations; any thread assembles a batch of all
    pending announcements, applies them to an immutable queue state and
    installs it with a single CAS (announce → collect → combine, the
    fetch&add-free core of the P-Sim approach).  Every announced operation
    is applied after at most two successful state transitions, giving
    wait-free progress.  Labeled [SimQueue*] in benchmark output; see
    DESIGN.md §2 for the substitution note. *)

type t

val create : ?max_threads:int -> unit -> t
val enqueue : t -> int -> unit
val dequeue : t -> int option
