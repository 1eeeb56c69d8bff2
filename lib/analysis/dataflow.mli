(** Generic worklist fixpoint solver over block CFGs.

    The solver is direction-agnostic: a forward analysis stores the state
    at block entry and names successors (plus handlers) as dependents; a
    backward analysis stores the state at block entry too but names
    predecessors.  {!Tessera_opt.Cfg} provides both dependency relations
    and seed orders. *)

module type LATTICE = sig
  type t

  val equal : t -> t -> bool
end

module Make (L : LATTICE) : sig
  val fixpoint :
    n:int ->
    deps:int array array ->
    order:int array ->
    init:(int -> L.t) ->
    transfer:(get:(int -> L.t) -> round:int -> int -> L.t) ->
    ?max_steps:int ->
    unit ->
    L.t array
  (** Chaotic iteration to a fixpoint.  [deps.(b)] lists the blocks to
      re-enqueue when block [b]'s state changes; [order] seeds the
      worklist (typically {!Tessera_opt.Cfg.forward_order} or
      {!Tessera_opt.Cfg.backward_order}).  [transfer ~get ~round b] recomputes
      block [b]'s state from its neighbours' current states; [round] is
      the number of times [b] has been recomputed so far, so transfer
      functions over infinite-height domains can widen after a few
      rounds.  Raises [Failure] after [max_steps] recomputations
      (default [1024 * (n + 1)]) — a safety valve against a
      non-converging transfer, not a tuning knob. *)
end
