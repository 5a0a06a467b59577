type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64: advance by the golden gamma, then mix. *)
let next_state st =
  st.state <- Int64.add st.state golden_gamma;
  st.state

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix64 (Int64.of_int seed) }
let bits64 rng = mix64 (next_state rng)
let split rng = { state = bits64 rng }

(* Child seed [i] of a parent seed, independent of any draw order: the
   parent state jumps [i + 1] gammas ahead and is mixed once more. Two
   mixing rounds keep children decorrelated from each other and from the
   parent's own output stream (which never uses the +1 offset pattern at
   rest). *)
let derive ~seed i =
  if i < 0 then invalid_arg "Rng.derive: index must be non-negative";
  let parent = mix64 (Int64.of_int seed) in
  let jumped =
    Int64.add parent (Int64.mul (Int64.of_int (i + 1)) golden_gamma)
  in
  Int64.to_int (mix64 (mix64 jumped))

let int rng n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (bits64 rng) 2) in
  v mod n

let float rng x =
  (* 53 random bits scaled into [0, 1). *)
  let v = Int64.to_float (Int64.shift_right_logical (bits64 rng) 11) in
  v /. 9007199254740992.0 *. x

let bool rng = Int64.logand (bits64 rng) 1L = 1L
let uniform rng ~lo ~hi = lo +. float rng (hi -. lo)

let exponential rng ~mean =
  let u = 1.0 -. float rng 1.0 in
  -.mean *. log u

let gaussian rng ~mu ~sigma =
  let u1 = 1.0 -. float rng 1.0 in
  let u2 = float rng 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let pick rng a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int rng (Array.length a))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
