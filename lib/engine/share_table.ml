type change = { mutable at : Time.t; mutable app : int; mutable share : float }

type t = {
  mutable share : float array;
  mutable apps : int array;
  mutable n : int;
  mutable buckets : int;
}

let create () =
  { share = Array.make 8 0.0; apps = Array.make 8 0; n = 0; buckets = 16 }

let bucket t app = Hashtbl.hash app land (t.buckets - 1)

let grow a len fill =
  let b = Array.make (max len (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Stable insertion sort of the visit order by bucket: what a doubling
   does to the table, which splits each bucket in two and keeps the order
   within each half. *)
let rebucket t =
  for i = 1 to t.n - 1 do
    let app = t.apps.(i) in
    let b = bucket t app in
    let j = ref (i - 1) in
    while !j >= 0 && bucket t t.apps.(!j) > b do
      t.apps.(!j + 1) <- t.apps.(!j);
      decr j
    done;
    t.apps.(!j + 1) <- app
  done

(* A new binding goes to the front of its bucket. *)
let join t app =
  if t.n = Array.length t.apps then t.apps <- grow t.apps (t.n + 1) 0;
  let b = bucket t app in
  let i = ref 0 in
  while !i < t.n && bucket t t.apps.(!i) < b do
    incr i
  done;
  Array.blit t.apps !i t.apps (!i + 1) (t.n - !i);
  t.apps.(!i) <- app;
  t.n <- t.n + 1;
  if t.n > 2 * t.buckets then begin
    t.buckets <- 2 * t.buckets;
    rebucket t
  end

let set t ~app s =
  if app < 0 then invalid_arg "Share_table.set: negative app";
  if not (s > 0.0) then invalid_arg "Share_table.set: share must be positive";
  if app >= Array.length t.share then t.share <- grow t.share (app + 1) 0.0;
  if t.share.(app) = 0.0 then join t app;
  t.share.(app) <- s

let remove t ~app =
  if app >= 0 && app < Array.length t.share && t.share.(app) > 0.0 then begin
    t.share.(app) <- 0.0;
    let i = ref 0 in
    while t.apps.(!i) <> app do
      incr i
    done;
    Array.blit t.apps (!i + 1) t.apps !i (t.n - !i - 1);
    t.n <- t.n - 1
  end
