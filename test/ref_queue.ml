(* A deliberately naive reference event queue: the oracle that the
   simulator's timing wheel, slot pool and tombstone reaping are checked
   against. Pending events sit in one list sorted by (time, seq); every
   scheduled event gets a fresh id that is never reused, and its fate
   (pending, fired, cancelled) is remembered forever, so there is no
   recycling, no staleness and no reaping to get wrong. *)

type status = Pending | Fired | Cancelled

type event = { time : int; seq : int; id : int; fn : unit -> unit }

type t = {
  mutable clock : int;
  mutable next : int; (* next seq, and next id *)
  mutable queue : event list; (* pending only, ascending (time, seq) *)
  status : (int, status) Hashtbl.t;
}

let create () = { clock = 0; next = 0; queue = []; status = Hashtbl.create 64 }
let now r = r.clock
let pending r = List.length r.queue
let status r id = Hashtbl.find r.status id

let schedule_after r dt fn =
  if dt < 0 then invalid_arg "Ref_queue.schedule_after: negative delay";
  let id = r.next in
  r.next <- id + 1;
  let ev = { time = r.clock + dt; seq = id; id; fn } in
  let rec insert = function
    | e :: rest when (e.time, e.seq) < (ev.time, ev.seq) -> e :: insert rest
    | l -> ev :: l
  in
  r.queue <- insert r.queue;
  Hashtbl.replace r.status id Pending;
  id

let cancel r id =
  if status r id = Pending then begin
    r.queue <- List.filter (fun e -> e.id <> id) r.queue;
    Hashtbl.replace r.status id Cancelled
  end

(* Fire the earliest event while its time is within [limit]. The event
   leaves the queue before its callback runs, so the callback may schedule
   (also at the current instant) or cancel freely. *)
let rec drain r limit =
  match r.queue with
  | e :: rest when e.time <= limit ->
      r.queue <- rest;
      r.clock <- e.time;
      Hashtbl.replace r.status e.id Fired;
      e.fn ();
      drain r limit
  | _ -> ()

let run_until r limit =
  drain r limit;
  if limit > r.clock then r.clock <- limit

let run r = drain r max_int
