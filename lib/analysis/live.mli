(** Backward liveness of method-local symbols (argument and temporary
    slots).

    A symbol is live at a point when some path from that point reads it
    (arity-0 [Load], or [Inc], which reads before writing) before any
    redefinition.  Blocks with an exception handler conservatively keep
    the handler's live-in set live throughout: a trap can transfer
    control to the handler from any statement, before or after any
    definition in the block. *)

module Meth = Tessera_il.Meth
module Cfg = Tessera_opt.Cfg
module Bitset = Tessera_util.Bitset

type t = {
  cfg : Cfg.t;
  live_in : Bitset.t array;  (** per block, indexed by symbol id *)
}

val analyze : Meth.t -> t

val live_in : t -> int -> Bitset.t

val pressure : t -> int
(** Maximum [live_in] population over reachable blocks: the "live-slot
    pressure" feature — how many locals a register allocator must keep
    simultaneously. *)
