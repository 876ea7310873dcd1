module Running = Hmn_stats.Running

type verdict = {
  claim : string;
  holds : bool;
  detail : string;
}

let clusters = [ Scenario.Torus; Scenario.Switched ]

(* Mean objective of a cell, when it has successes. *)
let cell_stat results ~scenario ~cluster ~mapper ~stat =
  match Runner.cell results ~scenario ~cluster ~mapper with
  | None -> None
  | Some c ->
    let r = stat c in
    if Running.count r = 0 then None else Some (Running.mean r)

let objective results ~scenario ~cluster ~mapper =
  cell_stat results ~scenario ~cluster ~mapper ~stat:(fun c -> c.Runner.objective)

let makespan results ~scenario ~cluster ~mapper =
  cell_stat results ~scenario ~cluster ~mapper ~stat:(fun c -> c.Runner.makespan)

let failures results ~cluster ~mapper =
  let total = ref 0 in
  Array.iteri
    (fun scenario _ ->
      match Runner.cell results ~scenario ~cluster ~mapper with
      | Some c -> total := !total + c.Runner.failures
      | None -> ())
    results.Runner.scenarios;
  !total

(* Count cells where [pred a b] holds among cells where both mappers
   produced numbers. *)
let paired_cells results ~a ~b ~stat ~pred =
  let hold = ref 0 and total = ref 0 in
  Array.iteri
    (fun scenario _ ->
      List.iter
        (fun cluster ->
          match
            ( cell_stat results ~scenario ~cluster ~mapper:a ~stat,
              cell_stat results ~scenario ~cluster ~mapper:b ~stat )
          with
          | Some va, Some vb ->
            incr total;
            if pred va vb then incr hold
          | _ -> ())
        clusters)
    results.Runner.scenarios;
  (!hold, !total)

let fraction_check ~claim ~threshold (hold, total) =
  {
    claim;
    holds = total > 0 && float_of_int hold >= threshold *. float_of_int total;
    detail = Printf.sprintf "%d of %d comparable cells" hold total;
  }

let check_hmn_beats_random results =
  fraction_check
    ~claim:"HMN's objective beats R and RA (paper: every row)" ~threshold:0.9
    (let h1, t1 =
       paired_cells results ~a:"HMN" ~b:"R"
         ~stat:(fun c -> c.Runner.objective)
         ~pred:(fun a b -> a < b)
     in
     let h2, t2 =
       paired_cells results ~a:"HMN" ~b:"RA"
         ~stat:(fun c -> c.Runner.objective)
         ~pred:(fun a b -> a < b)
     in
     (h1 + h2, t1 + t2))

let high_level_extremes results =
  (* Indices of the high-level scenarios with the smallest and largest
     ratio (any density). *)
  let best = ref None and worst = ref None in
  Array.iteri
    (fun i s ->
      if s.Scenario.workload = Scenario.High_level then begin
        (match !best with
        | Some (_, r) when r <= s.Scenario.ratio -> ()
        | _ -> best := Some (i, s.Scenario.ratio));
        match !worst with
        | Some (_, r) when r >= s.Scenario.ratio -> ()
        | _ -> worst := Some (i, s.Scenario.ratio)
      end)
    results.Runner.scenarios;
  (!best, !worst)

let check_advantage_shrinks results =
  (* Relative advantage (RA - HMN) / RA at the lowest vs highest
     high-level ratio, averaged over clusters. *)
  let advantage scenario =
    let values =
      List.filter_map
        (fun cluster ->
          match
            ( objective results ~scenario ~cluster ~mapper:"HMN",
              objective results ~scenario ~cluster ~mapper:"RA" )
          with
          | Some h, Some r when r > 0. -> Some ((r -. h) /. r)
          | _ -> None)
        clusters
    in
    match values with
    | [] -> None
    | _ -> Some (List.fold_left ( +. ) 0. values /. float_of_int (List.length values))
  in
  match high_level_extremes results with
  | Some (lo, lo_ratio), Some (hi, hi_ratio) -> (
    match (advantage lo, advantage hi) with
    | Some at_low, Some at_high ->
      {
        claim =
          "HMN's relative advantage over RA shrinks from the lowest to the \
           highest high-level ratio";
        holds = at_high < at_low;
        detail =
          Printf.sprintf "%.0f%% at %.1f:1 -> %.0f%% at %.1f:1" (100. *. at_low)
            lo_ratio (100. *. at_high) hi_ratio;
      }
    | _ ->
      { claim = "HMN advantage shrinks with ratio"; holds = false;
        detail = "insufficient data" })
  | _ ->
    { claim = "HMN advantage shrinks with ratio"; holds = false;
      detail = "no high-level scenarios" }

let check_r_equals_ra results =
  fraction_check
    ~claim:"R and RA objectives agree within 10% (routing does not move the \
            placement objective)"
    ~threshold:0.8
    (paired_cells results ~a:"R" ~b:"RA"
       ~stat:(fun c -> c.Runner.objective)
       ~pred:(fun a b -> Float.abs (a -. b) <= 0.1 *. Float.max a b))

let check_failures results =
  let hmn =
    List.fold_left (fun acc c -> acc + failures results ~cluster:c ~mapper:"HMN") 0 clusters
  in
  let ra =
    List.fold_left (fun acc c -> acc + failures results ~cluster:c ~mapper:"RA") 0 clusters
  in
  let budget = (2 * results.Runner.config.Runner.reps) + 4 in
  {
    claim = "HMN fails at most a handful more than RA (both route with A*Prune)";
    holds = hmn <= ra + budget;
    detail = Printf.sprintf "HMN %d vs RA %d failures" hmn ra;
  }

let check_time_grows results =
  match high_level_extremes results with
  | Some (lo, _), Some (hi, _) ->
    let grows cluster =
      match
        ( makespan results ~scenario:lo ~cluster ~mapper:"HMN",
          makespan results ~scenario:hi ~cluster ~mapper:"HMN" )
      with
      | Some a, Some b -> b > a
      | _ -> false
    in
    {
      claim = "simulated experiment time grows with the ratio (HMN, both clusters)";
      holds = List.for_all grows clusters;
      detail =
        String.concat ", "
          (List.map
             (fun cluster ->
               Printf.sprintf "%s: %s -> %s" (Scenario.cluster_label cluster)
                 (match makespan results ~scenario:lo ~cluster ~mapper:"HMN" with
                 | Some v -> Printf.sprintf "%.2fs" v
                 | None -> "?")
                 (match makespan results ~scenario:hi ~cluster ~mapper:"HMN" with
                 | Some v -> Printf.sprintf "%.2fs" v
                 | None -> "?"))
             clusters);
    }
  | _ -> { claim = "experiment time grows"; holds = false; detail = "no data" }

let check_hmn_faster_experiments results =
  fraction_check
    ~claim:"HMN's emulated experiments finish sooner than R's" ~threshold:0.75
    (paired_cells results ~a:"HMN" ~b:"R"
       ~stat:(fun c -> c.Runner.makespan)
       ~pred:(fun a b -> a < b))

let check_correlation results =
  match Hmn_emulation.Correlate.median_within_group results.Runner.correlation with
  | Some r ->
    {
      claim = "median within-scenario objective/makespan Pearson r >= 0.5 (paper: 0.7)";
      holds = r >= 0.5;
      detail = Printf.sprintf "r = %.2f" r;
    }
  | None ->
    { claim = "objective/makespan correlation"; holds = false;
      detail = "no simulated runs" }

let check_all results =
  [
    check_hmn_beats_random results;
    check_advantage_shrinks results;
    check_r_equals_ra results;
    check_failures results;
    check_time_grows results;
    check_hmn_faster_experiments results;
    check_correlation results;
  ]

let render verdicts =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Reproduction shape checks:\n";
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  [%s] %s (%s)\n" (if v.holds then "ok" else "!!") v.claim
           v.detail))
    verdicts;
  Buffer.contents buf
