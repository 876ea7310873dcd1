module Metrics = Hmn_obs.Metrics

type summary = {
  policy : string;
  seed : int;
  arrivals : int;
  admitted : int;
  rejected : int;
  departures : int;
  defrag_rounds : int;
  defrag_moves : int;
  horizon_s : float;
  acceptance : float;
  mean_tenants : float;
  peak_tenants : int;
  mean_guests : float;
  peak_guests : int;
  mean_lbf : float;
  final_lbf : float;
  mean_fragmentation : float;
  mean_mem_utilization : float;
  mean_bw_utilization : float;
}

type t = {
  occ : Occupancy.t;
  flight : Flight.t option;
  policy : string;
  seed : int;
  mutable arrivals : int;
  mutable admitted : int;
  mutable rejected : int;
  mutable departures : int;
  mutable defrag_rounds : int;
  mutable defrag_moves : int;
  mutable peak_tenants : int;
  mutable peak_guests : int;
  (* piecewise-constant time integrals over [0, last_t] *)
  mutable last_t : float;
  mutable acc_tenants : float;
  mutable acc_guests : float;
  mutable acc_lbf : float;
  mutable acc_frag : float;
  mutable acc_mem : float;
  mutable acc_bw : float;
  c_arrivals : Metrics.counter;
  c_admitted : Metrics.counter;
  c_rejected : Metrics.counter;
  c_departures : Metrics.counter;
  c_defrag_moves : Metrics.counter;
  g_tenants : Metrics.gauge;
  g_guests : Metrics.gauge;
  h_admit_ns : Metrics.histogram;
}

let create ?flight ~policy ~seed occ =
  let t =
  {
    occ;
    flight;
    policy;
    seed;
    arrivals = 0;
    admitted = 0;
    rejected = 0;
    departures = 0;
    defrag_rounds = 0;
    defrag_moves = 0;
    peak_tenants = 0;
    peak_guests = 0;
    last_t = 0.;
    acc_tenants = 0.;
    acc_guests = 0.;
    acc_lbf = 0.;
    acc_frag = 0.;
    acc_mem = 0.;
    acc_bw = 0.;
    c_arrivals = Metrics.counter "online.arrivals";
    c_admitted = Metrics.counter "online.admitted";
    c_rejected = Metrics.counter "online.rejected";
    c_departures = Metrics.counter "online.departures";
    c_defrag_moves = Metrics.counter "online.defrag_moves";
    g_tenants = Metrics.gauge "online.tenants";
    g_guests = Metrics.gauge "online.guests";
    h_admit_ns = Metrics.histogram "online.admit_ns";
  }
  in
  (* the timeline's first row is the empty cluster at t = 0 *)
  (match flight with
  | Some f -> Flight.sample f ~t_s:0. occ
  | None -> ());
  t

(* Integrate the current occupancy readings over [last_t, now]. Must be
   called BEFORE the event at [now] mutates the occupancy: the state was
   constant on that half-open interval. *)
let tick t ~now =
  let dt = now -. t.last_t in
  if dt < -1e-9 then
    invalid_arg
      (Printf.sprintf "Session.tick: time went backwards (%g -> %g)" t.last_t
         now);
  if dt > 0. then begin
    (* pre-mutation state, stamped at the event instant — exactly the
       value the integrals below hold constant over [last_t, now) *)
    (match t.flight with
    | Some f -> Flight.sample f ~t_s:now t.occ
    | None -> ());
    t.acc_tenants <- t.acc_tenants +. (dt *. float_of_int (Occupancy.n_tenants t.occ));
    t.acc_guests <- t.acc_guests +. (dt *. float_of_int (Occupancy.n_guests t.occ));
    t.acc_lbf <- t.acc_lbf +. (dt *. Occupancy.lbf t.occ);
    t.acc_frag <- t.acc_frag +. (dt *. Occupancy.fragmentation t.occ);
    t.acc_mem <- t.acc_mem +. (dt *. Occupancy.mem_utilization t.occ);
    t.acc_bw <- t.acc_bw +. (dt *. Occupancy.bw_utilization t.occ);
    t.last_t <- now
  end

let note_population t =
  let nt = Occupancy.n_tenants t.occ and ng = Occupancy.n_guests t.occ in
  if nt > t.peak_tenants then t.peak_tenants <- nt;
  if ng > t.peak_guests then t.peak_guests <- ng;
  Metrics.Gauge.observe t.g_tenants nt;
  Metrics.Gauge.observe t.g_guests ng

let observe_arrival t ~admitted ~admit_seconds ~work =
  t.arrivals <- t.arrivals + 1;
  Metrics.Counter.incr t.c_arrivals;
  (* wall-clock admission latency feeds observability only; the
     deterministic summary never sees it *)
  Metrics.Histogram.observe t.h_admit_ns
    (int_of_float (Float.round (admit_seconds *. 1e9)));
  (match t.flight with
  | Some f -> Flight.observe_admission f ~seconds:admit_seconds ~work
  | None -> ());
  if admitted then begin
    t.admitted <- t.admitted + 1;
    Metrics.Counter.incr t.c_admitted
  end
  else begin
    t.rejected <- t.rejected + 1;
    Metrics.Counter.incr t.c_rejected
  end;
  note_population t

let observe_departure t =
  t.departures <- t.departures + 1;
  Metrics.Counter.incr t.c_departures;
  note_population t

let observe_defrag t ~moves =
  t.defrag_rounds <- t.defrag_rounds + 1;
  t.defrag_moves <- t.defrag_moves + moves;
  Metrics.Counter.add t.c_defrag_moves moves

let finalize t ~now =
  tick t ~now;
  let horizon = t.last_t in
  let mean acc = if horizon > 0. then acc /. horizon else 0. in
  {
    policy = t.policy;
    seed = t.seed;
    arrivals = t.arrivals;
    admitted = t.admitted;
    rejected = t.rejected;
    departures = t.departures;
    defrag_rounds = t.defrag_rounds;
    defrag_moves = t.defrag_moves;
    horizon_s = horizon;
    acceptance =
      (if t.arrivals = 0 then 1.
       else float_of_int t.admitted /. float_of_int t.arrivals);
    mean_tenants = mean t.acc_tenants;
    peak_tenants = t.peak_tenants;
    mean_guests = mean t.acc_guests;
    peak_guests = t.peak_guests;
    mean_lbf = mean t.acc_lbf;
    final_lbf = Occupancy.lbf t.occ;
    mean_fragmentation = mean t.acc_frag;
    mean_mem_utilization = mean t.acc_mem;
    mean_bw_utilization = mean t.acc_bw;
  }

let render_summary (s : summary) =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "online session: policy=%s seed=%d horizon=%.1fs" s.policy s.seed
    s.horizon_s;
  line "  arrivals    %4d  (admitted %d, rejected %d; acceptance %.3f)"
    s.arrivals s.admitted s.rejected s.acceptance;
  line "  departures  %4d" s.departures;
  line "  defrag      %4d rounds, %d moves" s.defrag_rounds s.defrag_moves;
  line "  tenants     mean %.2f  peak %d" s.mean_tenants s.peak_tenants;
  line "  guests      mean %.2f  peak %d" s.mean_guests s.peak_guests;
  line "  lbf         mean %.3f  final %.3f" s.mean_lbf s.final_lbf;
  line "  frag        mean %.4f" s.mean_fragmentation;
  line "  mem util    mean %.4f" s.mean_mem_utilization;
  line "  bw util     mean %.4f" s.mean_bw_utilization;
  Buffer.contents b
