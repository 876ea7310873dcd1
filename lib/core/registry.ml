let paper ?max_tries () =
  [
    Hmn.mapper;
    Baselines.random ?max_tries ();
    Baselines.random_aprune ?max_tries ();
    Baselines.hosting_search ?max_tries ();
  ]

let all ?max_tries () =
  paper ?max_tries ()
  @ [
      Hmn.mapper_without_migration;
      Packing.to_mapper Packing.First_fit;
      Packing.to_mapper Packing.Best_fit;
      Packing.to_mapper Packing.Worst_fit;
      Packing.to_mapper Packing.Consolidate;
    ]

let find ?max_tries name =
  let target = String.lowercase_ascii name in
  List.find_opt
    (fun m -> String.lowercase_ascii m.Mapper.name = target)
    (all ?max_tries ())

let names () = List.map (fun m -> m.Mapper.name) (all ())
