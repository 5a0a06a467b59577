(* The queue is three parallel arrays sorted by (key, eid), least first.
   The key is the entity's vruntime as it was at enqueue: the queue keeps
   that snapshot until [requeue] refreshes it, and [dequeue] finds the
   entity by eid, so a queued entity whose vruntime moved is still
   removed. Runqueues hold a handful of entities, so a binary search and
   a blit beat a balanced tree, and neither allocates. *)
type t = {
  core_id : int;
  mutable keys : float array;
  mutable eids : int array;
  mutable ents : Entity.t array;
  mutable n : int;
  mutable running : Entity.t; (* Entity.none when idle *)
  min_vrt : Task.vclock;
}

let nice0_weight = 1024.0
let wakeup_bonus = 1_000_000.0 (* 1 ms of vruntime headroom for wakers *)

let create ~core =
  {
    core_id = core;
    keys = [||];
    eids = [||];
    ents = [||];
    n = 0;
    running = Entity.none;
    min_vrt = { Task.ns = 0.0 };
  }

let core rq = rq.core_id

(* First slot whose (key, eid) is above [(k, id)]. *)
let slot rq k id =
  let lo = ref 0 and hi = ref rq.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = Float.compare rq.keys.(mid) k in
    if c < 0 || (c = 0 && rq.eids.(mid) <= id) then lo := mid + 1 else hi := mid
  done;
  !lo

let grow rq e =
  let cap = max 4 (2 * rq.n) in
  let keys = Array.make cap 0.0 and eids = Array.make cap 0 in
  let ents = Array.make cap e in
  Array.blit rq.keys 0 keys 0 rq.n;
  Array.blit rq.eids 0 eids 0 rq.n;
  Array.blit rq.ents 0 ents 0 rq.n;
  rq.keys <- keys;
  rq.eids <- eids;
  rq.ents <- ents

let insert rq e =
  if rq.n = Array.length rq.keys then grow rq e;
  let k = e.Entity.vruntime.ns and id = e.Entity.eid in
  let i = slot rq k id in
  let tail = rq.n - i in
  Array.blit rq.keys i rq.keys (i + 1) tail;
  Array.blit rq.eids i rq.eids (i + 1) tail;
  Array.blit rq.ents i rq.ents (i + 1) tail;
  rq.keys.(i) <- k;
  rq.eids.(i) <- id;
  rq.ents.(i) <- e;
  rq.n <- rq.n + 1

let remove rq e =
  let id = e.Entity.eid in
  let i = ref 0 in
  while !i < rq.n && rq.eids.(!i) <> id do
    incr i
  done;
  if !i < rq.n then begin
    let i = !i in
    let tail = rq.n - i - 1 in
    Array.blit rq.keys (i + 1) rq.keys i tail;
    Array.blit rq.eids (i + 1) rq.eids i tail;
    Array.blit rq.ents (i + 1) rq.ents i tail;
    rq.n <- rq.n - 1
  end

let enqueue rq e =
  if not e.Entity.on_rq then begin
    e.Entity.on_rq <- true;
    insert rq e
  end

let dequeue rq e =
  if e.Entity.on_rq then begin
    e.Entity.on_rq <- false;
    remove rq e
  end

let requeue rq e =
  if e.Entity.on_rq then begin
    (* the stored key may carry a stale vruntime; rebuild *)
    remove rq e;
    insert rq e
  end

let leftmost rq = if rq.n = 0 then Entity.none else rq.ents.(0)

let best_other rq e =
  let id = e.Entity.eid in
  if rq.n > 0 && rq.eids.(0) <> id then rq.ents.(0)
  else if rq.n > 1 then rq.ents.(1)
  else Entity.none

let n_queued rq = rq.n
let nth rq i = rq.ents.(i)
let curr rq = rq.running
let set_curr rq e = rq.running <- e
let min_vruntime rq = rq.min_vrt.ns

(* [min_vruntime] follows the least of the running entity's vruntime and
   the leftmost stored key, and never moves back. *)
let update_min_vruntime rq =
  let m = rq.min_vrt in
  let e = rq.running in
  if e != Entity.none then begin
    let v = e.Entity.vruntime.ns in
    let v = if rq.n > 0 then Float.min v rq.keys.(0) else v in
    m.ns <- Float.max m.ns v
  end
  else if rq.n > 0 then m.ns <- Float.max m.ns rq.keys.(0)

let place_new rq e =
  let v = e.Entity.vruntime in
  v.ns <- Float.max v.ns rq.min_vrt.ns

let place_woken rq e =
  let v = e.Entity.vruntime in
  v.ns <- Float.max v.ns (rq.min_vrt.ns -. wakeup_bonus)

let charge rq e span =
  let v = e.Entity.vruntime in
  v.ns <- v.ns +. (float_of_int span *. nice0_weight /. e.Entity.weight);
  (match e.Entity.kind with
  | Entity.EGroup g -> (
      (* bill the inner running task too, for intra-group fairness *)
      let t = g.Entity.gcurr in
      if t != Task.none then begin
        let tv = t.Task.vruntime in
        tv.ns <- tv.ns +. (float_of_int span *. nice0_weight /. t.Task.weight)
      end)
  | Entity.ETask t -> t.Task.vruntime.ns <- v.ns);
  if e.Entity.on_rq then requeue rq e;
  update_min_vruntime rq
