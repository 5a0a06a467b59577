open Psbox_engine

type result = (int * float) list

let add acc app e =
  let cur = match List.assoc_opt app acc with Some x -> x | None -> 0.0 in
  (app, cur +. e) :: List.remove_assoc app acc

let fold_segments tl usages ~from ~until ~f =
  let segs = Usage.segments usages ~from ~until in
  List.fold_left
    (fun acc seg ->
      let energy = Timeline.integrate tl seg.Usage.t0 seg.Usage.t1 in
      f acc seg energy)
    [] segs
  |> List.sort compare

let usage_split tl usages ~from ~until =
  fold_segments tl usages ~from ~until ~f:(fun acc seg energy ->
      let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 seg.Usage.shares in
      if total <= 0.0 then acc
      else
        List.fold_left
          (fun acc (app, share) -> add acc app (energy *. share /. total))
          acc seg.Usage.shares)

let even_split tl usages ~from ~until =
  fold_segments tl usages ~from ~until ~f:(fun acc seg energy ->
      match seg.Usage.shares with
      | [] -> acc
      | shares ->
          let n = float_of_int (List.length shares) in
          List.fold_left (fun acc (app, _) -> add acc app (energy /. n)) acc shares)

let last_entity tl usages ~from ~until =
  let segs = Usage.segments usages ~from ~until in
  let last = ref None in
  List.fold_left
    (fun acc seg ->
      let energy = Timeline.integrate tl seg.Usage.t0 seg.Usage.t1 in
      match seg.Usage.shares with
      | [] -> (
          (* tail power goes to the most recent user *)
          match !last with Some app -> add acc app energy | None -> acc)
      | shares ->
          (* the dominant user both gets this segment's split and becomes
             the "last" entity *)
          let dominant, _ =
            List.fold_left
              (fun (ba, bs) (a, s) -> if s > bs then (a, s) else (ba, bs))
              (fst (List.hd shares), -1.0)
              shares
          in
          last := Some dominant;
          let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 shares in
          List.fold_left
            (fun acc (app, share) -> add acc app (energy *. share /. total))
            acc shares)
    [] segs
  |> List.sort compare

let shared_baseline tl ~idle_w usages ~from ~until =
  fold_segments tl usages ~from ~until ~f:(fun acc seg energy ->
      match seg.Usage.shares with
      | [] -> acc
      | shares ->
          let dur = Time.to_sec_f (seg.Usage.t1 - seg.Usage.t0) in
          let baseline = Float.min energy (idle_w *. dur) in
          let dynamic = energy -. baseline in
          let n = float_of_int (List.length shares) in
          let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 shares in
          List.fold_left
            (fun acc (app, share) ->
              add acc app ((baseline /. n) +. (dynamic *. share /. total)))
            acc shares)

let windowed_by_count ?(window = Time.ms 100) tl usages ~from ~until =
  let acc = ref [] in
  let cursor = ref from in
  while !cursor < until do
    let w_end = min until (!cursor + window) in
    let energy = Timeline.integrate tl !cursor w_end in
    (* requests whose service begins in this window *)
    let counts = Hashtbl.create 8 in
    List.iter
      (fun s ->
        if s.Usage.start >= !cursor && s.Usage.start < w_end then begin
          let c =
            match Hashtbl.find_opt counts s.Usage.app with
            | Some c -> c
            | None -> 0
          in
          Hashtbl.replace counts s.Usage.app (c + 1)
        end)
      usages;
    let total = Hashtbl.fold (fun _ c a -> a + c) counts 0 in
    if total > 0 then
      Hashtbl.iter
        (fun app c ->
          acc :=
            add !acc app (energy *. float_of_int c /. float_of_int total))
        counts;
    cursor := w_end
  done;
  List.sort compare !acc

(* ------------------------------------------------------------------ *)
(* Online usage-proportional splitting, fed by the power bus.

   The offline [usage_split] reconstructs constant-share segments from a
   full usage trace and integrates the rail timeline over each — O(history)
   per query. The live splitter keeps only the current power level and the
   current share table, and settles [w * share/total * dt] into per-app
   accumulators at every boundary (a power transition announced on the bus,
   or a share change on the device's feed). Same arithmetic, same segment
   boundaries, O(apps) per event and O(1) state. *)

type live = {
  lw : lw;
  mutable last_t : Time.t;
  shares : Share_table.t;
  mutable acc : float array; (* app -> joules attributed *)
  mutable seen : Bytes.t; (* app -> '\001' once it has an [acc] entry *)
  mutable lsub : Psbox_engine.Bus.subscription option; (* rail transitions *)
  mutable ssub : Psbox_engine.Bus.subscription option; (* share changes *)
}

(* The rail's draw since the last transition. An all-float record is
   stored flat, so tracking it allocates nothing. *)
and lw = { mutable cur_w : float }

(* The share total is a float sum, taken in [Share_table]'s fixed visit
   order; each app's accumulator adds on its own. *)
let live_settle lv ~at =
  let dt = float_of_int (at - lv.last_t) /. 1e9 in
  if dt > 0.0 then begin
    let sh = lv.shares in
    let total = ref 0.0 in
    for i = 0 to sh.n - 1 do
      total := !total +. sh.share.(sh.apps.(i))
    done;
    let total = !total in
    if total > 0.0 then begin
      let len = Array.length sh.share in
      if Array.length lv.acc < len then begin
        let acc = Array.make len 0.0 and seen = Bytes.make len '\000' in
        Array.blit lv.acc 0 acc 0 (Array.length lv.acc);
        Bytes.blit lv.seen 0 seen 0 (Bytes.length lv.seen);
        lv.acc <- acc;
        lv.seen <- seen
      end;
      for i = 0 to sh.n - 1 do
        let app = sh.apps.(i) in
        lv.acc.(app) <-
          lv.acc.(app) +. (lv.lw.cur_w *. dt *. sh.share.(app) /. total);
        Bytes.set lv.seen app '\001'
      done
    end;
    lv.last_t <- at
  end
  else if dt = 0.0 then ()
  else invalid_arg "Split.live: time went backwards"

let set_share lv ~at ~app share =
  if share < 0.0 then invalid_arg "Split.live: negative share";
  live_settle lv ~at;
  if share > 1e-9 then Share_table.set lv.shares ~app share
  else Share_table.remove lv.shares ~app

let live (f : Psbox_kernel.System.feed) ~from =
  let lv =
    {
      lw = { cur_w = Psbox_hw.Power_rail.power f.rail };
      last_t = from;
      shares = Share_table.create ();
      acc = [||];
      seen = Bytes.empty;
      lsub = None;
      ssub = None;
    }
  in
  lv.lsub <-
    Some
      (Psbox_engine.Bus.subscribe
         (Psbox_hw.Power_rail.transitions f.rail)
         (fun tr ->
           let open Psbox_hw.Power_rail in
           live_settle lv ~at:tr.at;
           lv.lw.cur_w <- tr.after_w));
  List.iter (fun (app, share) -> set_share lv ~at:from ~app share) (f.current ());
  lv.ssub <-
    Some
      (Psbox_engine.Bus.subscribe f.changes (fun (c : Share_table.change) ->
           set_share lv ~at:c.at ~app:c.app c.share));
  lv

let live_read lv ~until =
  live_settle lv ~at:until;
  let r = ref [] in
  for app = Bytes.length lv.seen - 1 downto 0 do
    if Bytes.get lv.seen app = '\001' then r := (app, lv.acc.(app)) :: !r
  done;
  !r

(* The same additions as summing [live_read]'s entry for [app] over [lvs],
   in list order, without building the lists. *)
let app_j lvs ~until ~app =
  List.fold_left
    (fun acc lv ->
      live_settle lv ~at:until;
      if app < Bytes.length lv.seen && Bytes.get lv.seen app = '\001' then
        acc +. lv.acc.(app)
      else acc)
    0.0 lvs

let live_detach lv =
  Option.iter Psbox_engine.Bus.unsubscribe lv.lsub;
  lv.lsub <- None;
  Option.iter Psbox_engine.Bus.unsubscribe lv.ssub;
  lv.ssub <- None
