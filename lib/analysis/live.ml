module Opcode = Tessera_il.Opcode
module Node = Tessera_il.Node
module Block = Tessera_il.Block
module Meth = Tessera_il.Meth
module Cfg = Tessera_opt.Cfg
module Bitset = Tessera_util.Bitset

type t = { cfg : Cfg.t; live_in : Bitset.t array }

let is_local_load (n : Node.t) =
  n.Node.op = Opcode.Load && Array.length n.Node.args = 0

let is_local_store (n : Node.t) =
  n.Node.op = Opcode.Store && Array.length n.Node.args = 1

(* Per-tree symbol sets, in one pre-order pass. *)
let tree_uses_defs tree =
  Node.fold
    (fun (uses, defs) (n : Node.t) ->
      if is_local_load n then (n.Node.sym :: uses, defs)
      else if is_local_store n then (uses, n.Node.sym :: defs)
      else if n.Node.op = Opcode.Inc then (n.Node.sym :: uses, n.Node.sym :: defs)
      else (uses, defs))
    ([], []) tree

module Solver = Dataflow.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
end)

let analyze (m : Meth.t) =
  let cfg = Cfg.build m in
  let n = Array.length m.Meth.blocks in
  let nsyms = Array.length m.Meth.symbols in
  (* per-block gen (upward-exposed uses) and kill (definitions), by a
     backward walk mirroring reverse evaluation order *)
  let gen = Array.make n (Bitset.create nsyms) in
  let kill = Array.make n (Bitset.create nsyms) in
  Array.iteri
    (fun bi (b : Block.t) ->
      let g = Bitset.create nsyms and k = Bitset.create nsyms in
      let trees =
        List.rev (b.Block.stmts @ Block.terminator_nodes b.Block.term)
      in
      List.iter
        (fun tree ->
          let uses, defs = tree_uses_defs tree in
          List.iter (fun s -> Bitset.set g s false) defs;
          List.iter (fun s -> Bitset.set g s true) uses;
          List.iter (fun s -> Bitset.set k s true) defs)
        trees;
      gen.(bi) <- g;
      kill.(bi) <- k)
    m.Meth.blocks;
  let transfer ~get ~round:_ b =
    let out = Bitset.create nsyms in
    List.iter (fun s -> ignore (Bitset.union_into ~into:out (get s))) cfg.Cfg.succs.(b);
    Bitset.diff_into ~into:out kill.(b);
    ignore (Bitset.union_into ~into:out gen.(b));
    (* a trap anywhere in the block can reach the handler with any prefix
       of the block executed: the handler's live-in stays live here *)
    (match cfg.Cfg.handler.(b) with
    | Some h -> ignore (Bitset.union_into ~into:out (get h))
    | None -> ());
    out
  in
  let live_in =
    Solver.fixpoint ~n
      ~deps:(Cfg.backward_deps cfg)
      ~order:(Cfg.backward_order cfg)
      ~init:(fun _ -> Bitset.create nsyms)
      ~transfer ()
  in
  { cfg; live_in }

let live_in t b = t.live_in.(b)

let pressure t =
  let best = ref 0 in
  Array.iteri
    (fun b s -> if t.cfg.Cfg.reachable.(b) then best := max !best (Bitset.popcount s))
    t.live_in;
  !best
