(* Quickstart: build a tiny physical cluster by hand, describe a small
   virtual environment, run the HMN heuristic and inspect the mapping.

   Run with: dune exec examples/quickstart.exe *)

module Resources = Hmn_testbed.Resources
module Node = Hmn_testbed.Node
module Link = Hmn_testbed.Link
module Graph = Hmn_graph.Graph

let () =
  (* Physical side: four workstations on a ring, 1 Gbps / 5 ms cables. *)
  let host name mips mem_gb stor_gb =
    Node.host ~name
      ~capacity:
        (Resources.make ~mips ~mem_mb:(1024. *. mem_gb) ~stor_gb)
  in
  let hosts =
    [|
      host "alpha" 2000. 2. 500.;
      host "beta" 1500. 1. 400.;
      host "gamma" 3000. 3. 800.;
      host "delta" 1000. 2. 300.;
    |]
  in
  let cluster = Hmn_testbed.Topology.ring ~hosts ~link:Link.gigabit in

  (* Virtual side: a six-guest environment emulating a small wide-area
     deployment — a coordinator talking to five workers. *)
  let guest name mips mem_mb stor_gb =
    Hmn_vnet.Guest.make ~name ~demand:(Resources.make ~mips ~mem_mb ~stor_gb)
  in
  let guests =
    [|
      guest "coordinator" 400. 512. 50.;
      guest "worker1" 200. 256. 20.;
      guest "worker2" 200. 256. 20.;
      guest "worker3" 200. 256. 20.;
      guest "worker4" 200. 256. 20.;
      guest "worker5" 200. 256. 20.;
    |]
  in
  let vgraph = Graph.create ~n:(Array.length guests) () in
  for worker = 1 to 5 do
    ignore
      (Graph.add_edge vgraph 0 worker
         (Hmn_vnet.Vlink.make ~bandwidth_mbps:10. ~latency_ms:40.))
  done;
  let venv = Hmn_vnet.Virtual_env.create ~guests ~graph:vgraph in

  let problem = Hmn_mapping.Problem.make ~cluster ~venv in
  Format.printf "Problem: %a@.@." Hmn_mapping.Problem.pp_summary problem;

  match (Hmn_core.Hmn.run problem).Hmn_core.Mapper.result with
  | Error f -> Format.printf "mapping failed in %s: %s@." f.stage f.reason
  | Ok mapping ->
    print_endline "Placement:";
    print_string (Hmn_mapping.Report.placement_table mapping);
    print_endline "\nVirtual links:";
    print_string (Hmn_mapping.Report.link_table mapping);
    print_endline "";
    print_endline (Hmn_mapping.Report.summary mapping);
    (* Every mapping returned by the library satisfies Eqs. (1)-(9);
       check it explicitly anyway, as a user would. *)
    assert (Hmn_validate.Validator.is_valid mapping);
    print_endline "constraint check: OK"
