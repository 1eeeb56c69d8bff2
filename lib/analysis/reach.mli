(** Forward reaching definitions over method-local symbols.

    Definition sites are arity-1 [Store] and [Inc] nodes; in addition,
    every symbol carries one virtual entry definition (arguments are
    bound on entry, temporaries default-initialized by the VM), so a
    use always has at least one reaching definition.  Exceptional edges
    pass [in(b) ∪ defs(b)] to the handler: any subset of the block's
    definitions may have executed before the trap. *)

module Meth = Tessera_il.Meth
module Cfg = Tessera_opt.Cfg
module Bitset = Tessera_util.Bitset

type def = {
  def_id : int;
  sym : int;  (** symbol defined *)
  block : int;  (** -1 for virtual entry definitions *)
  node_uid : int;  (** -1 for virtual entry definitions *)
}

type t = {
  cfg : Cfg.t;
  defs : def array;  (** indexed by [def_id] *)
  reach_in : Bitset.t array;  (** per block, indexed by [def_id] *)
}

val analyze : Meth.t -> t

val density : t -> int
(** Mean reaching-definition count per reachable block, saturated at
    255: the "reaching-def density" feature. *)
