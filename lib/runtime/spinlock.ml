(* relaxed-ok: the release-side assert reads the holder without a step;
   ownership makes it race-free. *)
type t = { cell : int Satomic.t }

let create () = { cell = Satomic.make (-1) }

let try_acquire t =
  Satomic.get t.cell = -1 && Satomic.compare_and_set t.cell (-1) (Sched.self ())

let acquire t =
  let rec spin cap = if not (try_acquire t) then spin (Backoff.once cap) in
  spin 1

let release t =
  assert (Satomic.get_relaxed t.cell = Sched.self ());
  Satomic.set t.cell (-1)

let holder t = Satomic.get t.cell
let reset t = Satomic.set t.cell (-1)
