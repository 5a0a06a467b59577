(* The reference live splitter: shares and per-app joules in hash tables,
   settled with a fold and an iter. The array-backed [Split.live] must
   read back the same doubles for any share and power trace; its share
   table visits apps in this table's order, which makes the share totals
   the same float sums. *)
open Psbox_engine

type t = {
  mutable cur_w : float;
  mutable last_t : Time.t;
  shares : (int, float) Hashtbl.t;
  acc : (int, float) Hashtbl.t;
}

let settle lv ~at =
  let dt = Time.to_sec_f (at - lv.last_t) in
  if dt > 0.0 then begin
    let total =
      Hashtbl.fold (fun _ s a -> if s > 1e-9 then a +. s else a) lv.shares 0.0
    in
    if total > 0.0 then
      Hashtbl.iter
        (fun app s ->
          if s > 1e-9 then begin
            let cur =
              match Hashtbl.find_opt lv.acc app with Some x -> x | None -> 0.0
            in
            Hashtbl.replace lv.acc app (cur +. (lv.cur_w *. dt *. s /. total))
          end)
        lv.shares;
    lv.last_t <- at
  end
  else if dt < 0.0 then invalid_arg "Ref_split: time went backwards"

let create rail ~from =
  let lv =
    {
      cur_w = Psbox_hw.Power_rail.power rail;
      last_t = from;
      shares = Hashtbl.create 8;
      acc = Hashtbl.create 8;
    }
  in
  ignore
    (Bus.subscribe (Psbox_hw.Power_rail.transitions rail) (fun tr ->
         let open Psbox_hw.Power_rail in
         settle lv ~at:tr.at;
         lv.cur_w <- tr.after_w));
  lv

let set_share lv ~at ~app share =
  settle lv ~at;
  if share > 1e-9 then Hashtbl.replace lv.shares app share
  else Hashtbl.remove lv.shares app

let read lv ~until =
  settle lv ~at:until;
  Hashtbl.fold (fun app e acc -> (app, e) :: acc) lv.acc [] |> List.sort compare
