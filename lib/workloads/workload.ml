open Psbox_engine
module System = Psbox_kernel.System
module Task = Psbox_kernel.Task
module Smp = Psbox_kernel.Smp
module Accel_driver = Psbox_kernel.Accel_driver
module Net_sched = Psbox_kernel.Net_sched
module Accel = Psbox_hw.Accel

type accel_spec = { kind : string; work_s : float; units : int; intensity : float }

let spec ?(units = 1) ?(intensity = 1.0) ~kind ~work_s () =
  { kind; work_s; units; intensity }

type op =
  | Compute of Time.span
  | Sleep of Time.span
  | Gpu_batch of accel_spec list
  | Dsp_batch of accel_spec list
  | Gpu_async of accel_spec
  | Dsp_async of accel_spec
  | Send of { socket : int; bytes : int }
  | Send_async of { socket : int; bytes : int }
  | Request of { socket : int; tx_bytes : int; rx_bytes : int; rtt : Time.span }
  | Count of string * float
  | Effect of (unit -> unit)

type script = unit -> op list option

let forever f () = Some (f ())

let repeat n f =
  let i = ref 0 in
  fun () ->
    if !i >= n then None
    else begin
      let ops = f !i in
      incr i;
      Some ops
    end

let submit_batch sys ~app ~driver specs ~wake =
  let remaining = ref (List.length specs) in
  List.iter
    (fun s ->
      let cmd =
        Accel.command ~app:app.System.app_id ~kind:s.kind ~work_s:s.work_s
          ~units:s.units ~intensity:s.intensity ()
      in
      Accel_driver.submit driver ~app:app.System.app_id cmd
        ~on_complete:(fun _ ->
          decr remaining;
          if !remaining = 0 then wake ()))
    specs;
  ignore sys

(* Fire-and-forget submission: the task resumes at driver acceptance (which
   an SGX-style driver defers while a foreign balloon holds the queue). *)
let submit_async sys ~app ~driver spec ~wake =
  let cmd =
    Accel.command ~app:app.System.app_id ~kind:spec.kind ~work_s:spec.work_s
      ~units:spec.units ~intensity:spec.intensity ()
  in
  Accel_driver.submit driver ~on_accepted:wake ~app:app.System.app_id cmd
    ~on_complete:(fun _ -> ());
  ignore sys

(* Response frames arrive in MTU-sized chunks after the round trip. *)
let deliver_response sys ~app ~socket ~bytes ~rtt ~wake =
  let netd = System.net sys in
  let chunk = 1500 in
  ignore
    (Sim.schedule_after (System.sim sys) rtt (fun () ->
         let n = max 1 ((bytes + chunk - 1) / chunk) in
         let remaining = ref n in
         for i = 0 to n - 1 do
           let sz = if i = n - 1 then bytes - (chunk * (n - 1)) else chunk in
           Net_sched.deliver_rx netd ~app:app.System.app_id ~socket
             ~bytes:(max 1 sz) ~on_rx:(fun _ ->
               decr remaining;
               if !remaining = 0 then wake ())
         done))

let spawn sys ~app ~name ?(core = 0) ?(weight = 1024.0) script =
  let queue : op Queue.t = Queue.create () in
  let task = ref None in
  let the_task () = match !task with Some t -> t | None -> assert false in
  let wake () = Smp.wake (System.smp sys) (the_task ()) in
  let rec next () : Task.action =
    if Queue.is_empty queue then
      match script () with
      | None -> Task.Exit
      | Some ops ->
          List.iter (fun op -> Queue.push op queue) ops;
          next ()
    else
      match Queue.pop queue with
      | Compute s -> Task.Run s
      | Sleep s -> Task.Sleep s
      | Count (key, v) ->
          System.bump app key v;
          next ()
      | Effect f ->
          f ();
          next ()
      | Gpu_batch specs ->
          submit_batch sys ~app ~driver:(System.gpu sys) specs ~wake;
          Task.Block
      | Dsp_batch specs ->
          submit_batch sys ~app ~driver:(System.dsp sys) specs ~wake;
          Task.Block
      | Gpu_async spec ->
          submit_async sys ~app ~driver:(System.gpu sys) spec ~wake;
          Task.Block
      | Dsp_async spec ->
          submit_async sys ~app ~driver:(System.dsp sys) spec ~wake;
          Task.Block
      | Send { socket; bytes } ->
          Net_sched.send (System.net sys) ~app:app.System.app_id ~socket ~bytes
            ~on_sent:(fun _ -> wake ());
          Task.Block
      | Send_async { socket; bytes } ->
          Net_sched.send (System.net sys) ~app:app.System.app_id ~socket ~bytes
            ~on_sent:(fun _ -> ());
          next ()
      | Request { socket; tx_bytes; rx_bytes; rtt } ->
          Net_sched.send (System.net sys) ~app:app.System.app_id ~socket
            ~bytes:tx_bytes ~on_sent:(fun _ ->
              deliver_response sys ~app ~socket ~bytes:rx_bytes ~rtt ~wake);
          Task.Block
  in
  let t = Task.create ~app:app.System.app_id ~name ~weight ~core ~program:next () in
  task := Some t;
  Smp.spawn (System.smp sys) t;
  t

let app_alive sys app =
  Smp.app_tasks (System.smp sys) ~app:app.System.app_id <> []

let run_until_idle sys ~apps ~timeout =
  let deadline = System.now sys + timeout in
  let rec loop () =
    if System.now sys < deadline && List.exists (app_alive sys) apps then begin
      System.run_for sys (Time.ms 1);
      loop ()
    end
  in
  loop ()
