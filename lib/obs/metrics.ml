(* Handles carry a [live] flag instead of consulting the global switch
   on every update: updates stay a single branch on a field the caller
   already has in cache, and flipping the switch mid-run cannot tear a
   measurement in half. *)

type counter = {
  mutable count : int;
  c_live : bool;
}

type gauge = {
  mutable last : int;
  mutable max_v : int;
  g_live : bool;
}

type histogram = {
  (* replaced by a fresh one on [reset]: Quantile has no clear *)
  mutable q : Quantile.t;
  mutable sum : int;
  h_live : bool;
}

let inert_counter = { count = 0; c_live = false }
let inert_gauge = { last = 0; max_v = 0; g_live = false }
let inert_histogram = { q = Quantile.create (); sum = 0; h_live = false }

type collector = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

(* ---- global state ---- *)

let switch = Atomic.make false
let enable () = Atomic.set switch true
let disable () = Atomic.set switch false
let enabled () = Atomic.get switch

(* Every collector ever created, under a mutex taken only at collector
   creation (once per domain) and at snapshot/reset time — never on a
   metric update. *)
let registry_mutex = Mutex.create ()
let registry : collector list ref = ref []

let fresh_collector () =
  let c =
    {
      counters = Hashtbl.create 32;
      gauges = Hashtbl.create 8;
      histograms = Hashtbl.create 8;
    }
  in
  Mutex.lock registry_mutex;
  registry := c :: !registry;
  Mutex.unlock registry_mutex;
  c

(* The calling domain's private collector, created on first use. *)
let dls_key : collector Domain.DLS.key = Domain.DLS.new_key fresh_collector
let my_collector () = Domain.DLS.get dls_key

(* ---- handle creation ---- *)

let counter name =
  if not (enabled ()) then inert_counter
  else begin
    let c = my_collector () in
    match Hashtbl.find_opt c.counters name with
    | Some h -> h
    | None ->
      let h = { count = 0; c_live = true } in
      Hashtbl.add c.counters name h;
      h
  end

let gauge name =
  if not (enabled ()) then inert_gauge
  else begin
    let c = my_collector () in
    match Hashtbl.find_opt c.gauges name with
    | Some h -> h
    | None ->
      let h = { last = 0; max_v = 0; g_live = true } in
      Hashtbl.add c.gauges name h;
      h
  end

let histogram name =
  if not (enabled ()) then inert_histogram
  else begin
    let c = my_collector () in
    match Hashtbl.find_opt c.histograms name with
    | Some h -> h
    | None ->
      let h = { q = Quantile.create (); sum = 0; h_live = true } in
      Hashtbl.add c.histograms name h;
      h
  end

(* ---- updates ---- *)

module Counter = struct
  let incr c = if c.c_live then c.count <- c.count + 1
  let add c n = if c.c_live then c.count <- c.count + n
end

module Gauge = struct
  let observe g v =
    if g.g_live then begin
      g.last <- v;
      if v > g.max_v then g.max_v <- v
    end
end

module Histogram = struct
  let observe h v =
    if h.h_live then begin
      (* clamp like Quantile.record so the sum matches what it counted *)
      let v = Int.max 0 v in
      Quantile.record h.q v;
      h.sum <- h.sum + v
    end
end

(* ---- aggregation ---- *)

type histogram_snapshot = {
  quantile : Quantile.t;
  sum : int;
}

type snapshot = {
  counters : (string * int) list;
  gauge_maxima : (string * int) list;
  histograms : (string * histogram_snapshot) list;
}

let sorted_bindings tbl =
  List.sort (fun (a, _) (b, _) -> String.compare a b) tbl

(* Integer sums, maxima and Quantile's element-wise bucket sums are
   associative and commutative over exact values, so the merged result
   is independent of both the number of collectors and the order they
   registered in — jobs=1 and jobs=N sweeps aggregate byte-identically. *)
let snapshot () =
  Mutex.lock registry_mutex;
  let collectors = !registry in
  Mutex.unlock registry_mutex;
  let counters = Hashtbl.create 64 in
  let gauges = Hashtbl.create 16 in
  let histograms = Hashtbl.create 16 in
  List.iter
    (fun (c : collector) ->
      Hashtbl.iter
        (fun name h ->
          let prev = Option.value (Hashtbl.find_opt counters name) ~default:0 in
          Hashtbl.replace counters name (prev + h.count))
        c.counters;
      Hashtbl.iter
        (fun name h ->
          let prev = Option.value (Hashtbl.find_opt gauges name) ~default:0 in
          Hashtbl.replace gauges name (Stdlib.max prev h.max_v))
        c.gauges;
      Hashtbl.iter
        (fun name (h : histogram) ->
          match Hashtbl.find_opt histograms name with
          | None -> Hashtbl.add histograms name { quantile = Quantile.copy h.q; sum = h.sum }
          | Some acc ->
            Quantile.merge_into ~into:acc.quantile h.q;
            Hashtbl.replace histograms name { acc with sum = acc.sum + h.sum })
        c.histograms)
    collectors;
  let bindings tbl = sorted_bindings (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  {
    counters = bindings counters;
    gauge_maxima = bindings gauges;
    histograms = bindings histograms;
  }

let reset () =
  Mutex.lock registry_mutex;
  let collectors = !registry in
  Mutex.unlock registry_mutex;
  List.iter
    (fun (c : collector) ->
      Hashtbl.iter (fun _ h -> h.count <- 0) c.counters;
      Hashtbl.iter
        (fun _ h ->
          h.last <- 0;
          h.max_v <- 0)
        c.gauges;
      Hashtbl.iter
        (fun _ (h : histogram) ->
          h.q <- Quantile.create ();
          h.sum <- 0)
        c.histograms)
    collectors

let render s =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "counter %s %d\n" name v))
    s.counters;
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf (Printf.sprintf "gauge-max %s %d\n" name v))
    s.gauge_maxima;
  List.iter
    (fun (name, h) ->
      let q = Quantile.quantile h.quantile in
      Buffer.add_string buf
        (Printf.sprintf "histogram %s n=%d p50=%d p90=%d p99=%d max=%d sum=%d\n" name
           (Quantile.count h.quantile) (q 0.5) (q 0.9) (q 0.99)
           (Quantile.max_value h.quantile) h.sum))
    s.histograms;
  Buffer.contents buf
