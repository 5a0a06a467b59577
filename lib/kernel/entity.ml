type group = {
  psbox_id : int;
  gcore : int;
  mutable gtasks : Task.t list;
  mutable gcurr : Task.t; (* Task.none when no member runs *)
  mutable loan : float;
}

type kind = ETask of Task.t | EGroup of group

type t = {
  eid : int;
  kind : kind;
  weight : float;
  vruntime : Task.vclock;
  mutable on_rq : bool;
}

(* Domain-local, reset per device — see Task.next_tid. *)
let next_eid = Domain.DLS.new_key (fun () -> ref 0)
let reset_ids () = Domain.DLS.get next_eid := 0

let fresh_eid () =
  let next = Domain.DLS.get next_eid in
  incr next;
  !next

let of_task task =
  {
    eid = fresh_eid ();
    kind = ETask task;
    weight = task.Task.weight;
    vruntime = { Task.ns = task.Task.vruntime.ns };
    on_rq = false;
  }

let group ~psbox_id ~core ?(weight = 1024.0) () =
  {
    eid = fresh_eid ();
    kind = EGroup { psbox_id; gcore = core; gtasks = []; gcurr = Task.none; loan = 0.0 };
    weight;
    vruntime = { Task.ns = 0.0 };
    on_rq = false;
  }

let none =
  {
    eid = -1;
    kind = ETask Task.none;
    weight = 1024.0;
    vruntime = { Task.ns = 0.0 };
    on_rq = false;
  }

let is_group e = match e.kind with EGroup _ -> true | ETask _ -> false

let app_of e =
  match e.kind with ETask t -> t.Task.app | EGroup g -> g.psbox_id

let runnable e =
  match e.kind with
  | ETask t -> Task.is_runnable t
  | EGroup g -> List.exists Task.is_runnable g.gtasks

(* The first runnable task of least vruntime, in list order. *)
let rec pick best = function
  | [] -> best
  | t :: rest ->
      if not (Task.is_runnable t) then pick best rest
      else if best == Task.none || t.Task.vruntime.ns < best.Task.vruntime.ns
      then pick t rest
      else pick best rest

let group_pick g = pick Task.none g.gtasks

let pp fmt e =
  match e.kind with
  | ETask t -> Format.fprintf fmt "E[%a]" Task.pp t
  | EGroup g ->
      Format.fprintf fmt "E[psbox%d core%d vrt=%.0f loan=%.0f |tasks|=%d]"
        g.psbox_id g.gcore e.vruntime.ns g.loan (List.length g.gtasks)
