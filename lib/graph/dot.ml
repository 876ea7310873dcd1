let to_dot ?(name = "g") ?node_name ?edge_attr g =
  let node_name = Option.value node_name ~default:string_of_int in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("graph " ^ name ^ " {\n");
  for v = 0 to Graph.n_nodes g - 1 do
    Buffer.add_string buf (Printf.sprintf "  \"%s\";\n" (node_name v))
  done;
  Graph.iter_edges g (fun ~eid ~u ~v lab ->
      let attrs =
        match edge_attr with
        | None -> ""
        | Some f -> (
          match f eid lab with "" -> "" | a -> " [" ^ a ^ "]")
      in
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -- \"%s\"%s;\n" (node_name u) (node_name v) attrs));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
