type 'a t = {
  reader : string;
  arm_with : string;
  mutable armed : bool;
  mutable items : 'a list; (* newest first *)
}

let create ~reader ~arm_with = { reader; arm_with; armed = false; items = [] }
let arm log = log.armed <- true
let armed log = log.armed
let record log v = if log.armed then log.items <- v :: log.items

let newest_first log =
  if not log.armed then
    invalid_arg
      (Printf.sprintf "%s: history was not recorded; call %s before the run"
         log.reader log.arm_with);
  log.items

let to_list log = List.rev (newest_first log)

type 'a span = { start : Time.t; stop : Time.t; tag : 'a }

let to_spans log =
  List.sort
    (fun a b -> compare (a.start, a.stop) (b.start, b.stop))
    (newest_first log)

let overlaps a b = min a.stop b.stop > max a.start b.start
