module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Node = Tessera_il.Node
module Block = Tessera_il.Block
module Meth = Tessera_il.Meth
module Program = Tessera_il.Program
module Cfg = Tessera_opt.Cfg
module Int_set = Set.Make (Int)

type t = {
  reads_heap : bool;
  writes_heap : bool;
  allocates : bool;
  sync : bool;
  may_trap : bool;
  throws : bool;
  calls : Int_set.t;
}

let bottom =
  {
    reads_heap = false;
    writes_heap = false;
    allocates = false;
    sync = false;
    may_trap = false;
    throws = false;
    calls = Int_set.empty;
  }

let join a b =
  {
    reads_heap = a.reads_heap || b.reads_heap;
    writes_heap = a.writes_heap || b.writes_heap;
    allocates = a.allocates || b.allocates;
    sync = a.sync || b.sync;
    may_trap = a.may_trap || b.may_trap;
    throws = a.throws || b.throws;
    calls = Int_set.union a.calls b.calls;
  }

let equal a b =
  a.reads_heap = b.reads_heap
  && a.writes_heap = b.writes_heap
  && a.allocates = b.allocates
  && a.sync = b.sync
  && a.may_trap = b.may_trap
  && a.throws = b.throws
  && Int_set.equal a.calls b.calls

let imp a b = (not a) || b

let leq a b =
  imp a.reads_heap b.reads_heap
  && imp a.writes_heap b.writes_heap
  && imp a.allocates b.allocates
  && imp a.sync b.sync
  && imp a.may_trap b.may_trap
  && imp a.throws b.throws
  && Int_set.subset a.calls b.calls

let is_pure e =
  (not e.reads_heap) && (not e.writes_heap) && (not e.allocates)
  && (not e.sync) && (not e.may_trap) && not e.throws

(* A [Div]/[Rem] whose divisor is a nonzero constant cannot trap. *)
let divisor_nonzero (n : Node.t) =
  Array.length n.Node.args = 2
  &&
  let d = n.Node.args.(1) in
  Opcode.equal d.Node.op Opcode.Loadconst
  && (not (Types.is_floating d.Node.ty))
  && not (Int64.equal d.Node.const 0L)

let node_effects acc (n : Node.t) =
  match n.Node.op with
  | Opcode.Load when Array.length n.Node.args >= 1 ->
      { acc with reads_heap = true; may_trap = true }
  | Opcode.Store when Array.length n.Node.args >= 2 ->
      { acc with writes_heap = true; may_trap = true }
  | Opcode.Div | Opcode.Rem ->
      if Types.is_floating n.Node.ty || divisor_nonzero n then acc
      else { acc with may_trap = true }
  | Opcode.Cast Opcode.C_check -> { acc with may_trap = true }
  | Opcode.New -> { acc with allocates = true }
  | Opcode.Newarray | Opcode.Newmultiarray ->
      { acc with allocates = true; may_trap = true }
  | Opcode.Synchronization _ -> { acc with sync = true; may_trap = true }
  | Opcode.Call -> { acc with calls = Int_set.add n.Node.sym acc.calls }
  | Opcode.Arrayop Opcode.Bounds_check | Opcode.Arrayop Opcode.Array_length ->
      { acc with may_trap = true }
  | Opcode.Arrayop Opcode.Array_cmp ->
      { acc with reads_heap = true; may_trap = true }
  | Opcode.Arrayop Opcode.Array_copy ->
      { acc with reads_heap = true; writes_heap = true; may_trap = true }
  | _ -> acc

let of_meth (m : Meth.t) =
  let cfg = Cfg.build m in
  let acc = ref bottom in
  if m.Meth.attrs.Meth.synchronized then
    acc := { !acc with sync = true; may_trap = true };
  Array.iteri
    (fun bi (b : Block.t) ->
      if cfg.Cfg.reachable.(bi) then begin
        List.iter
          (fun tree -> acc := Node.fold node_effects !acc tree)
          (b.Block.stmts @ Block.terminator_nodes b.Block.term);
        match b.Block.term with
        | Block.Throw _ -> acc := { !acc with throws = true }
        | _ -> ()
      end)
    m.Meth.blocks;
  !acc

let close ~summaries eff =
  Int_set.fold
    (fun c acc ->
      if c >= 0 && c < Array.length summaries then join acc summaries.(c)
      else acc)
    eff.calls eff

let of_program (p : Program.t) =
  let n = Array.length p.Program.methods in
  let direct = Array.map of_meth p.Program.methods in
  let summaries = Array.make n bottom in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let nu = close ~summaries direct.(i) in
      if not (equal nu summaries.(i)) then begin
        summaries.(i) <- nu;
        changed := true
      end
    done
  done;
  summaries

let describe e =
  List.filter_map
    (fun (flag, name) -> if flag then Some name else None)
    [
      (e.reads_heap, "reads-heap");
      (e.writes_heap, "writes-heap");
      (e.allocates, "allocates");
      (e.sync, "sync");
      (e.may_trap, "may-trap");
      (e.throws, "throws");
    ]

let pp fmt e =
  let flags = describe e in
  let flags = if flags = [] then [ "pure" ] else flags in
  Format.fprintf fmt "{%s; calls=%d}"
    (String.concat "," flags)
    (Int_set.cardinal e.calls)
