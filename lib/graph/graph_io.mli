(** Textual export of graphs.

    The edge-list format is a header line [n <vertices>] followed by one
    [u v] pair per line.  DOT export is provided for eyeballing small
    instances with Graphviz. *)

val to_edge_list : Graph.t -> string
(** Serialize to the edge-list format (edges with [u < v], sorted). *)

val to_dot : ?name:string -> Graph.t -> string
(** Graphviz [graph { ... }] source. *)
