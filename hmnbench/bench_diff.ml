(* Compare hmn_bench result files against the bounds in BENCHMARK.json.

     bench_diff [--bench FILE] --parent A.json... --change B.json...
     bench_diff [--bench FILE] FILE...              (one side: spreads)
     bench_diff [--bench FILE] --schema-only FILE...

   One row per (end-to-end metric, workload): the parent's and the
   change's median and quartiles over their result files (one file per
   run, each contributing its own median), the pairs the change won, and
   a verdict. Runs pair up by seed, or by position when seeds repeat
   (see [pair_up]). A metric the result rows mark exact (same seed, same
   value) is worse when any pair got worse, else improved when any pair
   got better, else unchanged. Any other metric gets the first of these
   that holds:

   1. every change run beats every parent run: improved;
   2. every change run is worse than every parent run: worse;
   3. either side's quartile spread is wider than the bound: unresolved;
   4. the change's median is worse by more than the bound: worse;
   5. the medians differ in the good direction by more than the
      parent's quartile spread and the change wins at least 9 of every
      10 pairs: improved;
   6. otherwise unchanged.

   Timing verdicts never gate. The exit status is 1 when an exact metric
   gets worse or the share of failed operations rises; 3 when
   --schema-only finds a metric missing or with the wrong unit; 2 on a
   usage error, which includes runs that do not pair up. *)

module Json = Hmn_prelude.Json

let die code msg =
  prerr_endline ("bench_diff: " ^ msg);
  exit code

let get what = function Ok v -> v | Error e -> die 2 (what ^ ": " ^ e)

let read_json path =
  let ic = try open_in_bin path with Sys_error e -> die 2 e in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  get path (Json.of_string s)

let field path name j = get path (Json.member name j)
let str path name j = get path (Json.to_str (field path name j))
let num path name j = get path (Json.to_float (field path name j))
let arr path name j = get path (Json.to_list (field path name j))

let bool path name j =
  match field path name j with
  | Json.Bool b -> b
  | _ -> die 2 (Printf.sprintf "%s: %s is not a boolean" path name)

(* ---------- BENCHMARK.json ---------- *)

type metric = { name : string; unit : string; lower_better : bool; bound : float }

type bench = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let read_bench path =
  let j = read_json path in
  let metrics key with_bound =
    List.map
      (fun m ->
        {
          name = str path "name" m;
          unit = str path "unit" m;
          lower_better = str path "better" m = "lower";
          bound = (if with_bound then num path "bound" m else 0.);
        })
      (arr path key j)
  in
  {
    workloads = List.map (str path "name") (arr path "workloads" j);
    end_to_end = metrics "end_to_end" true;
    per_layer = metrics "per_layer" false;
  }

(* ---------- result files ---------- *)

type value = { v : float; unit_ : string; exact : bool }

type result = {
  path : string;
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  values : (string * value) list;  (** metric name -> this run's value *)
}

let read_result path =
  let j = read_json path in
  let traced = bool path "trace" j in
  let stamp = field path "stamp" j in
  let e2e row =
    ( str path "metric" row,
      { v = num path "median" row; unit_ = str path "unit" row; exact = bool path "exact" row } )
  in
  let layer row =
    (str path "metric" row, { v = num path "value" row; unit_ = str path "unit" row; exact = false })
  in
  {
    path;
    workload = str path "workload" j;
    seed = int_of_float (num path "seed" stamp);
    traced;
    attempted = int_of_float (num path "attempted" j);
    failed = int_of_float (num path "failed" j);
    values =
      (if traced then List.map layer (arr path "per_layer" j)
       else List.map e2e (arr path "end_to_end" j));
  }

(* ---------- statistics ---------- *)

type summary = { med : float; q1 : float; q3 : float }

let summarize xs =
  let a = Array.of_list xs in
  let p = Hmn_stats.Descriptive.percentile a in
  { med = p ~p:50.; q1 = p ~p:25.; q3 = p ~p:75. }

let spread s = if s.med = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.med

(* ---------- schema check ---------- *)

let schema_only bench results =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun r ->
      let wanted = if r.traced then bench.per_layer else bench.end_to_end in
      if not (List.mem r.workload bench.workloads) then
        problem "%s: workload %s is not in the benchmark" r.path r.workload;
      List.iter
        (fun m ->
          match List.assoc_opt m.name r.values with
          | None -> problem "%s: %s is missing" r.path m.name
          | Some v when v.unit_ <> m.unit ->
            problem "%s: %s is in %s, the benchmark says %s" r.path m.name v.unit_ m.unit
          | Some _ -> ())
        wanted)
    results;
  List.iter
    (fun w ->
      if not (List.exists (fun r -> r.workload = w) results) then
        problem "no result for workload %s" w)
    bench.workloads;
  match List.rev !problems with
  | [] ->
    Printf.printf "schema ok: %d result files, %d workloads\n" (List.length results)
      (List.length bench.workloads)
  | ps ->
    List.iter prerr_endline ps;
    exit 3

(* ---------- diff ---------- *)

let error_rate results =
  let a = List.fold_left (fun acc r -> acc + r.attempted) 0 results in
  let f = List.fold_left (fun acc r -> acc + r.failed) 0 results in
  if a = 0 then 0. else float_of_int f /. float_of_int a

(* The two sides' runs in pairs: by seed when each side ran every seed
   once and both ran the same seeds; else in the order the files were
   given, when both sides hold as many runs with the same seed at each
   position (ten alternating runs at one seed, say). Runs that pair up
   neither way are a usage error. *)
let pair_up ~what p c =
  let seeds rs = List.sort compare (List.map fst rs) in
  let once rs = List.sort_uniq compare (seeds rs) = seeds rs in
  if once p && once c && seeds p = seeds c then
    List.map (fun (seed, pv) -> (pv, List.assoc seed c)) p
  else if List.length p = List.length c && List.for_all2 (fun (a, _) (b, _) -> a = b) p c
  then List.map2 (fun (_, pv) (_, cv) -> (pv, cv)) p c
  else die 2 (what ^ ": the runs do not pair up; give both sides the same seeds")

let count f xs = List.length (List.filter f xs)

let diff bench ~parent ~change =
  let gate = ref [] in
  let one_sided = change = [] in
  Printf.printf "%-16s %-16s %-6s %33s %33s %8s %6s  %s\n" "metric" "workload" "unit"
    "parent median [q1, q3]" (if one_sided then "" else "change median [q1, q3]")
    (if one_sided then "spread" else "delta") (if one_sided then "bound" else "pairs")
    (if one_sided then "" else "verdict");
  let cell s =
    Printf.sprintf "%11.5g [%9.4g, %9.4g]" s.med s.q1 s.q3
  in
  List.iter
    (fun m ->
      List.iter
        (fun w ->
          let runs side =
            List.filter_map
              (fun r ->
                if r.traced || r.workload <> w then None
                else Option.map (fun v -> (r.seed, v)) (List.assoc_opt m.name r.values))
              side
          in
          let p = runs parent and c = runs change in
          let values rs = List.map (fun (_, v) -> v.v) rs in
          if p <> [] && one_sided then begin
            let s = summarize (values p) in
            Printf.printf "%-16s %-16s %-6s %33s %33s %7.2f%% %5.1f%%\n" m.name w m.unit (cell s) ""
              (100. *. spread s) (100. *. m.bound)
          end
          else if p <> [] && c <> [] then begin
            let pairs = pair_up ~what:(m.name ^ " on " ^ w) p c in
            let ps = summarize (values p) and cs = summarize (values c) in
            (* positive = the change is worse *)
            let worse a b = if m.lower_better then b -. a else a -. b in
            let rel = worse ps.med cs.med /. Float.abs ps.med in
            let wins = count (fun (pv, cv) -> worse pv.v cv.v < 0.) pairs in
            let losses = count (fun (pv, cv) -> worse pv.v cv.v > 0.) pairs in
            let every f = List.for_all (fun pv -> List.for_all (f pv) (values c)) (values p) in
            let exact = List.exists (fun (_, v) -> v.exact) (p @ c) in
            let verdict =
              if exact then
                (* no noise to allow for: a seed either repeats its value or not *)
                if losses > 0 then "worse" else if wins > 0 then "improved" else "unchanged"
              else if every (fun pv cv -> worse pv cv < 0.) then "improved"
              else if every (fun pv cv -> worse pv cv > 0.) then "worse"
              else if Float.max (spread ps) (spread cs) > m.bound then "unresolved"
              else if rel > m.bound then "worse"
              else if
                -.worse ps.med cs.med > ps.q3 -. ps.q1
                && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
              then "improved"
              else "unchanged"
            in
            if exact && losses > 0 then
              gate := Printf.sprintf "%s on %s got worse" m.name w :: !gate;
            Printf.printf "%-16s %-16s %-6s %33s %33s %+7.2f%% %6s  %s%s\n" m.name w m.unit (cell ps)
              (cell cs) (100. *. rel)
              (Printf.sprintf "%d/%d" wins (List.length pairs))
              verdict
              (if exact then " (exact)" else "")
          end)
        bench.workloads)
    bench.end_to_end;
  let ep = error_rate parent and ec = error_rate change in
  Printf.printf "error rate: parent %.6f%s\n" ep
    (if one_sided then "" else Printf.sprintf ", change %.6f" ec);
  if (not one_sided) && ec > ep then
    gate := Printf.sprintf "error rate rose from %g to %g" ep ec :: !gate;
  match List.rev !gate with
  | [] -> ()
  | gs ->
    List.iter (fun g -> prerr_endline ("bench_diff: " ^ g)) gs;
    exit 1

let () =
  let bench_path = ref "BENCHMARK.json" and schema = ref false in
  let parent = ref [] and change = ref [] in
  let side = ref parent in
  let rec parse = function
    | [] -> ()
    | "--bench" :: p :: rest ->
      bench_path := p;
      parse rest
    | "--schema-only" :: rest ->
      schema := true;
      parse rest
    | "--parent" :: rest ->
      side := parent;
      parse rest
    | "--change" :: rest ->
      side := change;
      parse rest
    | a :: _ when String.length a > 1 && a.[0] = '-' -> die 2 ("unknown option " ^ a)
    | f :: rest ->
      !side := f :: !(!side);
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let bench = read_bench !bench_path in
  let load files = List.map read_result (List.rev files) in
  if !parent = [] then die 2 "no result files given";
  if !schema then schema_only bench (load (!parent @ !change))
  else diff bench ~parent:(load !parent) ~change:(load !change)
