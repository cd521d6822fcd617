(** Graph algorithms used for validation and for calibrating experiments
    (broadcast time is trivially bounded below by source eccentricity). *)

(* lint: allow R12 — the exact distances the walk and broadcast tests check against *)
val bfs_distances : Graph.t -> int -> int array
(** [bfs_distances g src] is the array of hop distances from [src];
    unreachable vertices get [-1]. *)

val is_connected : Graph.t -> bool
(** [is_connected g] is whether every vertex is reachable from vertex 0
    (true for [n <= 1]); the answer is that of [component_count g = 1].
    The search changes direction (Beamer, Asanović and Patterson, SC
    2012): top-down from vertex 0 while the frontier is thin, then, once a
    level holds more than 1/14 of the unseen vertices and at least about
    n arcs, bottom-up sweeps in which each unseen vertex scans its
    neighbours only until it finds a seen one (one seen earlier in the
    same sweep counts).  A sweep that sees nothing settles the answer; one
    after which the vertices still unseen keep more than half of the
    unseen arcs hands back to top-down search from the vertices it saw.  Vertices of degree 0 are
    never swept.  Each sweep that goes on halves the unseen arcs, so the
    run is O(n + m), in a byte and an int of scratch per vertex.  On a
    connected G(10^4, 1.25 ln n / n) it reads about 1.5 arcs a vertex, of
    the 11.6 a vertex there are; paths and trees stay top-down. *)

(* lint: allow R12 — the labelling is_connected is checked against *)
val component_count : Graph.t -> int

(* lint: allow R12 — the labelling is_connected and is_bipartite are checked against *)
val components : Graph.t -> int array
(** [components g] labels each vertex with a component id in
    [0 .. component_count - 1]; ids are assigned in order of discovery. *)

(* lint: allow R12 — the lower bound the broadcast-time tests check against *)
val eccentricity : Graph.t -> int -> int
(** [eccentricity g src] is the maximum BFS distance from [src].
    @raise Invalid_argument if [g] is disconnected. *)

val diameter : Graph.t -> int
(** Exact diameter by all-pairs BFS; O(n * m), intended for test-sized
    graphs. @raise Invalid_argument if [g] is disconnected. *)

val diameter_lower_bound : Graph.t -> int
(** Double-sweep heuristic: one BFS from vertex 0, a second from the
    farthest vertex found.  Exact on trees; a lower bound in general.
    O(m). *)

val is_bipartite : Graph.t -> bool
(** 2-colorability check; meet-exchange must use lazy walks on bipartite
    graphs (Section 3 of the paper). *)

val degree_histogram : Graph.t -> (int * int) list
(** [(degree, count)] pairs sorted by degree. *)
