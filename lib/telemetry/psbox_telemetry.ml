let on = ref true
let enabled () = !on
let set_enabled b = on := b

(* Values render as integers when they are integers, [%g] otherwise, so
   snapshots never depend on accumulated floating-point noise in the
   formatting path itself. *)
let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

module Metrics = struct
  (* Mutable metric state (cells) lives in a per-domain store; handles are
     process-global, memoized by name, and carry a dense per-kind index
     into cell-cache arrays held by the store itself. A hot-path update is
     one DLS read, one array load and a float store — and because the
     caches live {e inside} the store, switching stores (a fresh domain,
     or a {!with_fresh_store} scope) atomically starts from a cold cache
     with no per-operation validation. The same handle transparently
     accumulates into whichever store its domain currently owns; that is
     what lets N concurrent device simulations share instrumented code
     without ever interleaving their metrics. *)

  type ccell = { mutable c : float }
  type gcell = { mutable g : float }

  type hcell = {
    h_edges : float array; (* strictly increasing upper bounds; shared *)
    h_counts : int array; (* length = edges + 1; last is overflow *)
    mutable h_sum : float;
  }

  type cell = CCounter of ccell | CGauge of gcell | CHist of hcell

  type store = {
    cells : (string, cell) Hashtbl.t;
    mutable ccache : ccell option array; (* indexed by counter handle idx *)
    mutable gcache : gcell option array;
    mutable hcache : hcell option array;
  }

  let new_store () =
    { cells = Hashtbl.create 64; ccache = [||]; gcache = [||]; hcache = [||] }

  let store_key : store Domain.DLS.key = Domain.DLS.new_key new_store

  type counter = { c_name : string; c_idx : int }
  type gauge = { g_name : string; g_idx : int }
  type histogram = { hm_name : string; hm_edges : float array; hm_idx : int }
  type handle = HCounter of counter | HGauge of gauge | HHist of histogram

  (* Name -> handle memo: the only mutable structure shared across domains,
     guarded by a mutex (which also guards the per-kind index counters).
     Registration is cold; hot paths never touch it. *)
  let handles : (string, handle) Hashtbl.t = Hashtbl.create 64
  let handles_mu = Mutex.create ()
  let n_counters = ref 0
  let n_gauges = ref 0
  let n_hists = ref 0

  let grown (cache : 'a option array) idx =
    let len = Array.length cache in
    if idx < len then cache
    else begin
      let a = Array.make (max 8 (2 * (idx + 1))) None in
      Array.blit cache 0 a 0 len;
      a
    end

  let kind_name = function
    | HCounter _ -> "counter"
    | HGauge _ -> "gauge"
    | HHist _ -> "histogram"

  let clash name h =
    invalid_arg
      (Printf.sprintf "Telemetry.Metrics: %S is already a %s" name
         (kind_name h))

  (* Slow paths: first touch of a handle in a given store. Find (or create)
     the named cell in the store's hashtable and publish it in the store's
     cache array at the handle's index. *)
  let materialize_c store (h : counter) =
    let cell =
      match Hashtbl.find_opt store.cells h.c_name with
      | Some (CCounter c) -> c
      | Some _ -> assert false (* kind is fixed by the handle memo *)
      | None ->
          let c = { c = 0.0 } in
          Hashtbl.replace store.cells h.c_name (CCounter c);
          c
    in
    store.ccache <- grown store.ccache h.c_idx;
    store.ccache.(h.c_idx) <- Some cell;
    cell

  let ccell_of (h : counter) =
    let store = Domain.DLS.get store_key in
    let cache = store.ccache in
    if h.c_idx < Array.length cache then
      match Array.unsafe_get cache h.c_idx with
      | Some c -> c
      | None -> materialize_c store h
    else materialize_c store h

  let materialize_g store (h : gauge) =
    let cell =
      match Hashtbl.find_opt store.cells h.g_name with
      | Some (CGauge g) -> g
      | Some _ -> assert false
      | None ->
          let g = { g = 0.0 } in
          Hashtbl.replace store.cells h.g_name (CGauge g);
          g
    in
    store.gcache <- grown store.gcache h.g_idx;
    store.gcache.(h.g_idx) <- Some cell;
    cell

  let gcell_of (h : gauge) =
    let store = Domain.DLS.get store_key in
    let cache = store.gcache in
    if h.g_idx < Array.length cache then
      match Array.unsafe_get cache h.g_idx with
      | Some g -> g
      | None -> materialize_g store h
    else materialize_g store h

  let materialize_h store (h : histogram) =
    let cell =
      match Hashtbl.find_opt store.cells h.hm_name with
      | Some (CHist c) -> c
      | Some _ -> assert false
      | None ->
          let c =
            {
              h_edges = h.hm_edges;
              h_counts = Array.make (Array.length h.hm_edges + 1) 0;
              h_sum = 0.0;
            }
          in
          Hashtbl.replace store.cells h.hm_name (CHist c);
          c
    in
    store.hcache <- grown store.hcache h.hm_idx;
    store.hcache.(h.hm_idx) <- Some cell;
    cell

  let hcell_of (h : histogram) =
    let store = Domain.DLS.get store_key in
    let cache = store.hcache in
    if h.hm_idx < Array.length cache then
      match Array.unsafe_get cache h.hm_idx with
      | Some c -> c
      | None -> materialize_h store h
    else materialize_h store h

  let counter name =
    let h =
      Mutex.protect handles_mu (fun () ->
          match Hashtbl.find_opt handles name with
          | Some (HCounter c) -> c
          | Some h -> clash name h
          | None ->
              let c = { c_name = name; c_idx = !n_counters } in
              Stdlib.incr n_counters;
              Hashtbl.replace handles name (HCounter c);
              c)
    in
    (* materialize in the registering domain so never-touched metrics still
       show up in its snapshots *)
    ignore (ccell_of h : ccell);
    h

  let incr h =
    if !on then begin
      let c = ccell_of h in
      c.c <- c.c +. 1.0
    end

  let add h v =
    if !on then begin
      let c = ccell_of h in
      c.c <- c.c +. v
    end

  let counter_value h = (ccell_of h).c

  let gauge name =
    let h =
      Mutex.protect handles_mu (fun () ->
          match Hashtbl.find_opt handles name with
          | Some (HGauge g) -> g
          | Some h -> clash name h
          | None ->
              let g = { g_name = name; g_idx = !n_gauges } in
              Stdlib.incr n_gauges;
              Hashtbl.replace handles name (HGauge g);
              g)
    in
    ignore (gcell_of h : gcell);
    h

  let set h v =
    if !on then begin
      let g = gcell_of h in
      g.g <- v
    end

  let set_max h v =
    if !on then begin
      let g = gcell_of h in
      if v > g.g then g.g <- v
    end

  let gauge_value h = (gcell_of h).g

  let histogram name ~edges =
    if Array.length edges = 0 then
      invalid_arg "Telemetry.Metrics.histogram: no bucket edges";
    for i = 1 to Array.length edges - 1 do
      if edges.(i) <= edges.(i - 1) then
        invalid_arg "Telemetry.Metrics.histogram: edges must increase"
    done;
    let h =
      Mutex.protect handles_mu (fun () ->
          match Hashtbl.find_opt handles name with
          | Some (HHist h) ->
              if h.hm_edges <> edges then
                invalid_arg
                  (Printf.sprintf
                     "Telemetry.Metrics.histogram: %S exists with different \
                      edges"
                     name);
              h
          | Some h -> clash name h
          | None ->
              let h =
                { hm_name = name; hm_edges = Array.copy edges; hm_idx = !n_hists }
              in
              Stdlib.incr n_hists;
              Hashtbl.replace handles name (HHist h);
              h)
    in
    ignore (hcell_of h : hcell);
    h

  let observe h v =
    if !on then begin
      let cell = hcell_of h in
      let n = Array.length h.hm_edges in
      let i = ref 0 in
      while !i < n && v > h.hm_edges.(!i) do
        Stdlib.incr i
      done;
      cell.h_counts.(!i) <- cell.h_counts.(!i) + 1;
      cell.h_sum <- cell.h_sum +. v
    end

  let bucket_counts h = Array.copy (hcell_of h).h_counts

  (* Prometheus-style quantile estimate: find the bucket holding the
     rank, interpolate linearly inside it; observations in the overflow
     bucket report the last finite edge. A histogram whose observations
     were all exactly zero ([sum = 0] with a non-negative value domain)
     reports 0 instead of interpolating phantom mass into the first
     bucket. *)
  let quantile_ec edges counts ~sum q =
    let n = Array.fold_left ( + ) 0 counts in
    if n = 0 then None
    else if sum = 0.0 && edges.(0) >= 0.0 then Some 0.0
    else begin
      let rank = q *. float_of_int n in
      let nedges = Array.length edges in
      let rec go i cum =
        if i >= nedges then Some edges.(nedges - 1)
        else begin
          let cum' = cum + counts.(i) in
          if float_of_int cum' >= rank && counts.(i) > 0 then begin
            let lo = if i = 0 then Float.min 0.0 edges.(0) else edges.(i - 1) in
            let hi = edges.(i) in
            let frac = (rank -. float_of_int cum) /. float_of_int counts.(i) in
            Some (lo +. ((hi -. lo) *. frac))
          end
          else go (i + 1) cum'
        end
      in
      go 0 0
    end

  let quantile h q =
    let cell = hcell_of h in
    quantile_ec h.hm_edges cell.h_counts ~sum:cell.h_sum q

  (* ---- mergeable exports ------------------------------------------- *)

  type value =
    | Counter_v of float
    | Gauge_v of float
    | Histogram_v of { edges : float array; counts : int array; sum : float }

  type export = (string * value) list

  let export () =
    let store = Domain.DLS.get store_key in
    Hashtbl.fold
      (fun name cell acc ->
        let v =
          match cell with
          | CCounter c -> Counter_v c.c
          | CGauge g -> Gauge_v g.g
          | CHist h ->
              Histogram_v
                {
                  edges = Array.copy h.h_edges;
                  counts = Array.copy h.h_counts;
                  sum = h.h_sum;
                }
        in
        (name, v) :: acc)
      store.cells []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let merge_value name a b =
    match (a, b) with
    | Counter_v x, Counter_v y -> Counter_v (x +. y)
    | Gauge_v x, Gauge_v y -> Gauge_v (Float.max x y)
    | Histogram_v ha, Histogram_v hb ->
        if ha.edges <> hb.edges then
          invalid_arg
            (Printf.sprintf
               "Telemetry.Metrics.merge: %S has mismatched histogram edges"
               name);
        Histogram_v
          {
            edges = ha.edges;
            counts =
              Array.init (Array.length ha.counts) (fun i ->
                  ha.counts.(i) + hb.counts.(i));
            sum = ha.sum +. hb.sum;
          }
    | _ ->
        invalid_arg
          (Printf.sprintf "Telemetry.Metrics.merge: %S has mismatched kinds"
             name)

  let rec merge a b =
    match (a, b) with
    | [], e | e, [] -> e
    | (na, va) :: ta, (nb, vb) :: tb ->
        let c = String.compare na nb in
        if c < 0 then (na, va) :: merge ta b
        else if c > 0 then (nb, vb) :: merge a tb
        else (na, merge_value na va vb) :: merge ta tb

  let rows_of name = function
    | Counter_v c -> [ (name, fmt_value c) ]
    | Gauge_v g -> [ (name, fmt_value g) ]
    | Histogram_v { edges; counts; sum } ->
        let n = Array.length edges in
        let cum = ref 0 in
        let buckets =
          List.init (n + 1) (fun i ->
              cum := !cum + counts.(i);
              let le = if i = n then "+inf" else Printf.sprintf "%g" edges.(i) in
              (Printf.sprintf "%s{le=%s}" name le, string_of_int !cum))
        in
        let percentiles =
          List.filter_map
            (fun (label, q) ->
              match quantile_ec edges counts ~sum q with
              | Some v -> Some (name ^ "." ^ label, fmt_value v)
              | None -> None)
            [ ("p50", 0.50); ("p95", 0.95); ("p99", 0.99) ]
        in
        buckets @ [ (name ^ ".sum", fmt_value sum) ] @ percentiles

  let export_rows e = List.concat_map (fun (name, v) -> rows_of name v) e
  let snapshot () = export_rows (export ())

  let values () =
    export ()
    |> List.filter_map (fun (name, v) ->
           match v with
           | Counter_v c -> Some (name, c)
           | Gauge_v g -> Some (name, g)
           | Histogram_v _ -> None)

  let find name =
    let store = Domain.DLS.get store_key in
    match Hashtbl.find_opt store.cells name with
    | Some (CCounter c) -> Some c.c
    | Some (CGauge g) -> Some g.g
    | Some (CHist _) | None -> None

  (* ---- windowed counter rates --------------------------------------- *)

  (* A rate tracker holds the delta bookkeeping health rules would
     otherwise each re-implement: sample the named counter (or gauge) on a
     caller-chosen grid and get back the per-second delta since the last
     sample. The previous observation lives in the tracker itself, so two
     trackers on one metric never interfere. *)
  type rate = {
    r_name : string;
    mutable r_prev : (float * float) option; (* (t_s, value) at last sample *)
  }

  let rate name = { r_name = name; r_prev = None }

  let rate_sample r ~now_s =
    match find r.r_name with
    | None ->
        r.r_prev <- None;
        None
    | Some v -> (
        let prev = r.r_prev in
        r.r_prev <- Some (now_s, v);
        match prev with
        | Some (t0, v0) when now_s > t0 -> Some ((v -. v0) /. (now_s -. t0))
        | Some _ | None -> None)

  let dump fmt () =
    List.iter
      (fun (name, v) -> Format.fprintf fmt "%s %s@\n" name v)
      (snapshot ())

  let dump_string () = Format.asprintf "%a" dump ()

  let reset () =
    let store = Domain.DLS.get store_key in
    Hashtbl.iter
      (fun _ cell ->
        match cell with
        | CCounter c -> c.c <- 0.0
        | CGauge g -> g.g <- 0.0
        | CHist h ->
            Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
            h.h_sum <- 0.0)
      store.cells

  let with_fresh_store f =
    let prev = Domain.DLS.get store_key in
    Domain.DLS.set store_key (new_store ());
    Fun.protect ~finally:(fun () -> Domain.DLS.set store_key prev) f
end

module Openmetrics = struct
  (* Prometheus/OpenMetrics text exposition of a metric export. Names map
     dots to underscores (the only character in our hierarchical names
     that the format forbids); rows keep the export's sorted-by-name order
     and histograms expand to cumulative _bucket rows (closed by the +Inf
     bucket), _sum and _count — so the output is byte-deterministic for a
     given update history, just like Metrics.snapshot. *)

  let sanitize name =
    String.map (fun c -> if c = '.' then '_' else c) name

  let pp fmt (e : Metrics.export) =
    List.iter
      (fun (name, v) ->
        let n = sanitize name in
        match v with
        | Metrics.Counter_v c ->
            Format.fprintf fmt "# TYPE %s counter@\n%s %s@\n" n n (fmt_value c)
        | Metrics.Gauge_v g ->
            Format.fprintf fmt "# TYPE %s gauge@\n%s %s@\n" n n (fmt_value g)
        | Metrics.Histogram_v { edges; counts; sum } ->
            Format.fprintf fmt "# TYPE %s histogram@\n" n;
            let cum = ref 0 in
            Array.iteri
              (fun i c ->
                cum := !cum + c;
                Format.fprintf fmt "%s_bucket{le=\"%g\"} %d@\n" n edges.(i)
                  !cum)
              (Array.sub counts 0 (Array.length edges));
            cum := !cum + counts.(Array.length edges);
            Format.fprintf fmt "%s_bucket{le=\"+Inf\"} %d@\n" n !cum;
            Format.fprintf fmt "%s_sum %s@\n" n (fmt_value sum);
            Format.fprintf fmt "%s_count %d@\n" n !cum)
      e;
    Format.fprintf fmt "# EOF@\n"

  let of_export e = Format.asprintf "%a" pp e
  let to_string () = of_export (Metrics.export ())

  let write path e =
    let oc = open_out path in
    let fmt = Format.formatter_of_out_channel oc in
    pp fmt e;
    Format.pp_print_flush fmt ();
    close_out oc
end

module Tracing = struct
  type kind = Span | Instant | Sample

  type event = {
    track : string;
    lane : string;
    kind : kind;
    name : string;
    ts : int;
    dur : int;
    args : (string * float) list;
  }

  (* Recording state is domain-local for the same reason metric stores are:
     a worker domain running a device never interleaves its events into the
     main domain's trace buffer. *)
  type tstate = {
    mutable armed : bool;
    mutable buf : event list; (* newest first *)
    mutable n : int;
    mutable n_dropped : int;
    mutable limit : int;
  }

  let tkey : tstate Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        { armed = false; buf = []; n = 0; n_dropped = 0; limit = 2_000_000 })

  let start () = (Domain.DLS.get tkey).armed <- true
  let stop () = (Domain.DLS.get tkey).armed <- false
  let recording () = (Domain.DLS.get tkey).armed && !on

  let clear () =
    let t = Domain.DLS.get tkey in
    t.buf <- [];
    t.n <- 0;
    t.n_dropped <- 0

  let record ev =
    let t = Domain.DLS.get tkey in
    if t.n >= t.limit then t.n_dropped <- t.n_dropped + 1
    else begin
      t.buf <- ev :: t.buf;
      t.n <- t.n + 1
    end

  let span ~track ~lane ~name ?(args = []) ~start ~stop () =
    if recording () then
      record
        { track; lane; kind = Span; name; ts = start; dur = stop - start; args }

  let instant ~track ~lane ~name ?(args = []) ts =
    if recording () then
      record { track; lane; kind = Instant; name; ts; dur = 0; args }

  let sample ~track ~name ts v =
    if recording () then
      record
        {
          track;
          lane = "";
          kind = Sample;
          name;
          ts;
          dur = 0;
          args = [ ("value", v) ];
        }

  let events () = List.rev (Domain.DLS.get tkey).buf
  let length () = (Domain.DLS.get tkey).n
  let dropped () = (Domain.DLS.get tkey).n_dropped

  let set_limit l =
    if l < 0 then invalid_arg "Telemetry.Tracing.set_limit";
    (Domain.DLS.get tkey).limit <- l
end

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Err of string

  let parse s =
    let len = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Err (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < len then Some s.[!pos] else None in
    let advance () = Stdlib.incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      let n = String.length word in
      if !pos + n <= len && String.sub s !pos n = word then begin
        pos := !pos + n;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= len then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents b
        else if c = '\\' then begin
          (if !pos >= len then fail "unterminated escape");
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if !pos + 4 > len then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let cp =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              (* UTF-8 encode the BMP code point *)
              if cp < 0x80 then Buffer.add_char b (Char.chr cp)
              else if cp < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
              end
          | _ -> fail "bad escape");
          go ()
        end
        else begin
          Buffer.add_char b c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < len && is_num_char s.[!pos] do
        advance ()
      done;
      let slice = String.sub s start (!pos - start) in
      match float_of_string_opt slice with
      | Some f -> Num f
      | None -> fail (Printf.sprintf "bad number %S" slice)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((key, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((key, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected %C" c)
    in
    try
      let v = parse_value () in
      skip_ws ();
      if !pos <> len then Error (Printf.sprintf "trailing data at offset %d" !pos)
      else Ok v
    with Err msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

module Chrome_trace = struct
  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* ns -> us with ns precision; chrome accepts fractional microseconds *)
  let us ns = Printf.sprintf "%.3f" (float_of_int ns /. 1000.)

  let pp_args fmt args =
    match args with
    | [] -> ()
    | args ->
        Format.fprintf fmt ",\"args\":{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Format.fprintf fmt ",";
            Format.fprintf fmt "\"%s\":%s" (escape k) (fmt_value v))
          args;
        Format.fprintf fmt "}"

  let pp fmt (events : Tracing.event list) =
    (* pids/tids by first appearance: deterministic for a given event list *)
    let pids : (string, int) Hashtbl.t = Hashtbl.create 8 in
    let tids : (string * string, int) Hashtbl.t = Hashtbl.create 16 in
    let next_tid : (string, int) Hashtbl.t = Hashtbl.create 8 in
    let pid_order = ref [] and tid_order = ref [] in
    let pid_of track =
      match Hashtbl.find_opt pids track with
      | Some p -> p
      | None ->
          let p = Hashtbl.length pids + 1 in
          Hashtbl.replace pids track p;
          pid_order := track :: !pid_order;
          p
    in
    let tid_of track lane =
      if lane = "" then 0
      else
        match Hashtbl.find_opt tids (track, lane) with
        | Some t -> t
        | None ->
            let t =
              match Hashtbl.find_opt next_tid track with Some n -> n | None -> 1
            in
            Hashtbl.replace next_tid track (t + 1);
            Hashtbl.replace tids (track, lane) t;
            tid_order := (track, lane) :: !tid_order;
            t
    in
    List.iter
      (fun (e : Tracing.event) -> ignore (tid_of e.track e.lane : int); ignore (pid_of e.track : int))
      events;
    Format.fprintf fmt "{\"traceEvents\":[";
    let first = ref true in
    let sep () =
      if !first then first := false else Format.fprintf fmt ",";
      Format.fprintf fmt "@\n"
    in
    List.iter
      (fun track ->
        sep ();
        Format.fprintf fmt
          "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"%s\"}}"
          (pid_of track) (escape track))
      (List.rev !pid_order);
    List.iter
      (fun (track, lane) ->
        sep ();
        Format.fprintf fmt
          "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}"
          (pid_of track) (tid_of track lane) (escape lane))
      (List.rev !tid_order);
    List.iter
      (fun (e : Tracing.event) ->
        sep ();
        let pid = pid_of e.track and tid = tid_of e.track e.lane in
        match e.kind with
        | Tracing.Span ->
            Format.fprintf fmt
              "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\",\"cat\":\"%s\",\"ts\":%s,\"dur\":%s%a}"
              pid tid (escape e.name) (escape e.track) (us e.ts) (us e.dur)
              pp_args e.args
        | Tracing.Instant ->
            Format.fprintf fmt
              "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\",\"cat\":\"%s\",\"ts\":%s,\"s\":\"t\"%a}"
              pid tid (escape e.name) (escape e.track) (us e.ts) pp_args e.args
        | Tracing.Sample ->
            Format.fprintf fmt
              "{\"ph\":\"C\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\",\"ts\":%s%a}"
              pid tid (escape e.name) (us e.ts) pp_args e.args)
      events;
    Format.fprintf fmt "@\n]}@\n"

  let to_string events = Format.asprintf "%a" pp events

  let write path events =
    let oc = open_out path in
    let fmt = Format.formatter_of_out_channel oc in
    pp fmt events;
    Format.pp_print_flush fmt ();
    close_out oc

  let validate text =
    match Json.parse text with
    | Error msg -> Error ("invalid JSON: " ^ msg)
    | Ok json -> (
        match Json.member "traceEvents" json with
        | None -> Error "missing \"traceEvents\" key"
        | Some (Json.Arr evs) ->
            let count = ref 0 in
            let bad = ref None in
            List.iteri
              (fun i ev ->
                match Json.member "ph" ev with
                | Some (Json.Str "M") -> ()
                | Some (Json.Str _) -> Stdlib.incr count
                | _ ->
                    if !bad = None then
                      bad := Some (Printf.sprintf "event %d has no \"ph\"" i))
              evs;
            (match !bad with Some msg -> Error msg | None -> Ok !count)
        | Some _ -> Error "\"traceEvents\" is not an array")
end
