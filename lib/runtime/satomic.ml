(* relaxed-ok: this module defines the relaxed accessor. *)

type 'a t = 'a Atomic.t

let make = Atomic.make

let get a =
  Sched.step_point ();
  Atomic.get a

let set a v =
  Sched.step_point ();
  Atomic.set a v

let exchange a v =
  Sched.step_point ();
  Atomic.exchange a v

let compare_and_set a old nw =
  Sched.step_point ();
  Atomic.compare_and_set a old nw

let fetch_and_add a n =
  Sched.step_point ();
  Atomic.fetch_and_add a n

let incr a = ignore (fetch_and_add a 1)
let decr a = ignore (fetch_and_add a (-1))
let get_relaxed a = Atomic.get a
