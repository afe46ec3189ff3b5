(** Deterministic pseudo-random numbers (splitmix64).

    Every randomized component of the simulator takes one of these so that
    runs are reproducible from a single integer seed. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. *)

val copy : t -> t

val next : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val split : t -> t
(** A generator independent from the parent's future output. *)

val at : seed:int -> stream:int -> int -> int -> int
(** [at ~seed ~stream i bound] is draw [i] of the splitmix64 stream keyed
    by ([seed], [stream]), uniform in [\[0, bound)].  Random access with no
    state: it allocates nothing, and equal arguments give equal draws. *)
