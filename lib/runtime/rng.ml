(* mutable-ok: each Rng stream is owned by one fiber (or by set-up code);
   streams are [split], never shared. *)
type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }
let copy t = { state = t.state }

let golden_gamma = 0x9E3779B97F4A7C15L

(* inlined so that [at] keeps its int64s unboxed and allocates nothing *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let int t bound =
  assert (bound > 0);
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  r mod bound

let bool t = Int64.logand (next t) 1L = 1L

let float t =
  let r = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int r /. 9007199254740992.0

let split t = { state = mix (next t) }

(* Draw [i] of [create (mix (seed + (stream + 1) * gamma))], computed
   without the generator. *)
let at ~seed ~stream i bound =
  assert (bound > 0);
  let step k = Int64.mul golden_gamma (Int64.of_int (k + 1)) in
  let key = mix (Int64.add (Int64.of_int seed) (step stream)) in
  let z = mix (Int64.add key (step i)) in
  Int64.to_int (Int64.shift_right_logical z 2) mod bound
