module Fuzz = Hmn_validate.Fuzz
module Solver = Hmn_exact.Solver
module Cluster = Hmn_testbed.Cluster
module Virtual_env = Hmn_vnet.Virtual_env
module Problem = Hmn_mapping.Problem
module Mapping = Hmn_mapping.Mapping
module Mapper = Hmn_core.Mapper
module Registry = Hmn_core.Registry
module Rng = Hmn_rng.Rng
module Table = Hmn_prelude.Pretty_table
module Clock = Hmn_prelude.Clock

type instance_run = {
  label : string;
  seed : int;
  params : Fuzz.params;
  n_hosts : int;
  n_guests : int;
  solver : Solver.t;
  optimum : float option;
  proven : bool;
  root_bound : float;
  wall_s : float;
  per_mapper : (string * float option) list;
}

(* Smallest to largest; the last class sits at the 10-host ceiling. Guest
   counts stop where every seeded instance still proves optimality well
   inside the default node budget: at 10 near-uniform switched hosts the
   water-filling bound goes flat (hundreds of near-ties per depth), and
   beyond ~14 guests single seeds blow past 10^6 nodes. Densities shrink
   with size so the virtual graphs keep ~1-3 links per guest. *)
let classes =
  [
    ( "torus2x2/high",
      {
        Fuzz.shape = Fuzz.Torus { rows = 2; cols = 2 };
        n_guests = 8;
        density = 0.3;
        low_level = false;
      } );
    ( "switch6/high",
      {
        Fuzz.shape = Fuzz.Switched { hosts = 6 };
        n_guests = 12;
        density = 0.2;
        low_level = false;
      } );
    ( "torus2x4/low",
      {
        Fuzz.shape = Fuzz.Torus { rows = 2; cols = 4 };
        n_guests = 14;
        density = 0.18;
        low_level = true;
      } );
    ( "switch10/high",
      {
        Fuzz.shape = Fuzz.Switched { hosts = 10 };
        n_guests = 12;
        density = 0.2;
        low_level = false;
      } );
  ]

let default_seed = 20090401
let default_per_class = 5

(* Same per-mapper stream derivation as the fuzzer, so a mapper sees
   the identical random sequence whether driven from here or from a
   fuzz repro of the same seed. *)
let mapper_rng ~seed ~mapper_name = Rng.create (seed + (17 * Hashtbl.hash mapper_name))

let gap_pct ~optimum ~objective =
  let g =
    if optimum > 1e-9 then 100. *. (objective -. optimum) /. optimum
    else objective
  in
  Float.max 0. g

let run_instance ?node_budget ~label ~params ~seed () =
  let problem = Fuzz.build_problem params ~seed in
  let mappers = Registry.paper ~max_tries:50 () in
  let mapped =
    List.map
      (fun m ->
        let name = m.Mapper.name in
        match
          (m.Mapper.run ~rng:(mapper_rng ~seed ~mapper_name:name) problem).Mapper.result
        with
        | Ok mapping -> (name, Some mapping)
        | Error _ -> (name, None))
      mappers
  in
  let per_mapper =
    List.map (fun (name, m) -> (name, Option.map Mapping.objective m)) mapped
  in
  let warm = List.filter_map snd mapped in
  let config =
    match node_budget with
    | None -> Solver.default_config
    | Some node_budget -> { Solver.default_config with node_budget }
  in
  (* Root relaxation, for bound-tightness reporting: a zero-node budget
     abandons the root immediately, leaving exactly the root bound. *)
  let root =
    Solver.solve ~config:{ config with node_budget = 0 } problem
  in
  let t0 = Clock.now_s () in
  let solver = Solver.solve ~config ~warm problem in
  let wall_s = Clock.elapsed_s t0 in
  {
    label;
    seed;
    params;
    n_hosts = Cluster.n_hosts problem.Problem.cluster;
    n_guests = Virtual_env.n_guests problem.Problem.venv;
    solver;
    optimum = Solver.optimum solver;
    proven = Solver.proven_optimal solver;
    root_bound = root.Solver.lower_bound;
    wall_s;
    per_mapper;
  }

let run ?node_budget ?(seed = default_seed) ?(per_class = default_per_class) () =
  List.concat_map
    (fun (label, params) ->
      List.init per_class (fun i ->
          run_instance ?node_budget ~label ~params ~seed:(seed + i) ()))
    classes

(* ---- rendering ---- *)

let mapper_names runs =
  match runs with [] -> [] | r :: _ -> List.map fst r.per_mapper

let fmt_opt = function None -> "-" | Some o -> Printf.sprintf "%.4f" o

let fmt_gap ~optimum objective =
  match (optimum, objective) with
  | _, None -> "-"
  | None, Some _ -> "!"  (* mapped an instance proven infeasible *)
  | Some opt, Some obj -> Printf.sprintf "%.2f" (gap_pct ~optimum:opt ~objective:obj)

let render_table runs =
  let names = mapper_names runs in
  let b = Buffer.create 1024 in
  let header =
    [ "instance"; "seed"; "hosts"; "guests"; "optimum"; "proven" ]
    @ List.map (fun n -> n ^ " gap%") names
  in
  let table =
    Table.create
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) (List.tl header))
      ~header ()
  in
  List.iter
    (fun r ->
      Table.add_row table
        ([
           r.label;
           string_of_int r.seed;
           string_of_int r.n_hosts;
           string_of_int r.n_guests;
           fmt_opt r.optimum;
           (if r.proven then "yes" else "NO");
         ]
        @ List.map (fun n -> fmt_gap ~optimum:r.optimum (List.assoc n r.per_mapper)) names))
    runs;
  Buffer.add_string b (Table.render table);
  (* Per-mapper aggregate over the instances it mapped (and that have a
     finite optimum). *)
  let summary =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~header:[ "mapper"; "mapped"; "mean gap%"; "max gap%"; "optimal hits" ]
      ()
  in
  List.iter
    (fun name ->
      let gaps =
        List.filter_map
          (fun r ->
            match (r.optimum, List.assoc name r.per_mapper) with
            | Some opt, Some obj -> Some (gap_pct ~optimum:opt ~objective:obj)
            | _ -> None)
          runs
      in
      let n = List.length gaps in
      if n = 0 then Table.add_row summary [ name; "0"; "-"; "-"; "-" ]
      else begin
        let mean = List.fold_left ( +. ) 0. gaps /. float_of_int n in
        let max_gap = List.fold_left Float.max 0. gaps in
        let hits = List.length (List.filter (fun g -> g <= 1e-4) gaps) in
        Table.add_row summary
          [
            name;
            string_of_int n;
            Printf.sprintf "%.2f" mean;
            Printf.sprintf "%.2f" max_gap;
            Printf.sprintf "%d/%d" hits n;
          ]
      end)
    names;
  Buffer.add_string b "\n";
  Buffer.add_string b (Table.render summary);
  let proven = List.length (List.filter (fun r -> r.proven) runs) in
  Buffer.add_string b
    (Printf.sprintf "\n%d/%d instances solved to proven optimality\n" proven
       (List.length runs));
  Buffer.contents b

let render_csv runs =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "label,seed,hosts,guests,optimum,proven,nodes,mapper,objective,gap_pct\n";
  List.iter
    (fun r ->
      List.iter
        (fun (name, objective) ->
          let opt = match r.optimum with None -> "" | Some o -> Printf.sprintf "%.6f" o in
          let obj, gap =
            match (objective, r.optimum) with
            | None, _ -> ("", "")
            | Some o, None -> (Printf.sprintf "%.6f" o, "")
            | Some o, Some opt ->
              ( Printf.sprintf "%.6f" o,
                Printf.sprintf "%.4f" (gap_pct ~optimum:opt ~objective:o) )
          in
          Buffer.add_string b
            (Printf.sprintf "%s,%d,%d,%d,%s,%b,%d,%s,%s,%s\n" r.label r.seed
               r.n_hosts r.n_guests opt r.proven r.solver.Solver.nodes name obj gap))
        r.per_mapper)
    runs;
  Buffer.contents b

(* Root bound over proven optimum: 1.0 means the relaxation is exact at
   the root; the shortfall is the integrality gap the search closes. *)
let tightness r =
  match r.optimum with
  | Some opt when opt > 1e-9 -> Printf.sprintf "%.4f" (r.root_bound /. opt)
  | _ -> "-"

let render_timings runs =
  let b = Buffer.create 256 in
  List.iter
    (fun r ->
      let s = r.solver in
      Buffer.add_string b
        (Printf.sprintf
           "timing: %s seed=%d nodes=%d leaves=%d certifications=%d \
            bound_prunes=%d admissibility_rejects=%d deadend_prunes=%d \
            root_bound=%.3f lower_bound=%.3f tightness=%s wall=%.3fs\n"
           r.label r.seed s.Solver.nodes s.Solver.leaves s.Solver.networking_runs
           s.Solver.bound_prunes s.Solver.admissibility_rejects s.Solver.deadend_prunes
           r.root_bound s.Solver.lower_bound (tightness r) r.wall_s))
    runs;
  Buffer.contents b
