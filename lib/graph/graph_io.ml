let to_edge_list g =
  let buf = Buffer.create (16 * Graph.num_edges g) in
  Buffer.add_string buf (Printf.sprintf "n %d\n" (Graph.n g));
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

let to_dot ?(name = "g") g =
  let buf = Buffer.create (16 * Graph.num_edges g) in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  Graph.iter_edges g (fun u v ->
      Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
