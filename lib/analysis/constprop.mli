(** Constant / interval abstract interpretation of a method.

    Mirrors {!Tessera_vm.Interp} exactly where it claims precision:
    [Loadconst] payloads are {e not} truncated, integral binop results
    are truncated to the node type, stores coerce to the symbol type,
    [Compare]/[Instanceof] yield 0/1, [Array_length] is bounded by the
    VM's array-length cap — and answers [Top] everywhere else (heap
    loads, calls, floating-point).  Exceptional edges receive the join
    of every intermediate environment of the covered block, since a trap
    can hand any prefix of the block's stores to the handler.

    Soundness contract (property-tested): whenever the interpreter
    returns [Int_v v] from the method, [v] lies in {!result.ret}. *)

module Meth = Tessera_il.Meth
module Cfg = Tessera_opt.Cfg

type result = {
  cfg : Cfg.t;
  in_envs : Interval.t array array;
      (** per reachable block: abstract value of each symbol at entry *)
  ret : Interval.t;
      (** join over reachable [Return (Some _)] sites, coerced to the
          method's return type; [Bot] when no integral-valued return is
          reachable *)
  const_nodes : int;  (** integral nodes with a provable singleton value *)
  total_nodes : int;
}

val analyze : Meth.t -> result

val const_fraction_pct : result -> int
(** [100 * const_nodes / total_nodes], 0 for an empty method: the
    "provably-constant expression fraction" feature. *)
