(** Control-flow graph over a method's blocks: the one place that
    derives edges, shared by the optimizer passes, loop analysis and the
    dataflow analyses in [Tessera_analysis].

    Exception edges (block → its handler) are included in reachability but
    reported separately from normal successors, because layout and
    merging decisions only consider normal flow while deletion decisions
    and the dataflow analyses must respect both. *)

type t = {
  preds : int list array;  (** normal-flow predecessors *)
  succs : int list array;  (** normal-flow successors *)
  handler : int option array;  (** per-block exception handler *)
  exc_preds : int list array;
      (** [exc_preds.(h)] = blocks whose handler is [h] *)
  reachable : bool array;  (** from entry, via normal + exception edges *)
  rpo : int array;  (** reverse post-order over normal edges *)
}

val build : Tessera_il.Meth.t -> t

val single_pred : t -> int -> int option
(** The unique normal predecessor of a block, if it has exactly one. *)

val forward_order : t -> int array
(** Reverse post-order: a good initial worklist for forward problems.
    Includes every block (handler-only blocks appended after the rpo). *)

val backward_order : t -> int array
(** Post-order: the forward order reversed. *)

val forward_deps : t -> int array array
(** [deps.(b)] = blocks whose forward transfer reads block [b]'s state:
    normal successors plus [b]'s handler. *)

val backward_deps : t -> int array array
(** [deps.(b)] = blocks whose backward transfer reads [b]'s state:
    normal predecessors plus blocks [b] handles for. *)

val dominators : t -> bool array array
(** [d.(b).(x)] iff block [x] dominates block [b].  Computed over normal
    edges plus exception edges (block → handler), so handler blocks are
    properly dominated rather than vacuously dominated-by-everything;
    blocks unreachable from entry dominate nothing and are dominated by
    everything (the standard convention). *)

val is_back_edge : bool array array -> int -> int -> bool
(** [is_back_edge dom u v]: the edge [u -> v] is a back edge, i.e. [v]
    dominates [u].  Id-order is irrelevant — block layout may renumber
    freely without confusing loop detection. *)
