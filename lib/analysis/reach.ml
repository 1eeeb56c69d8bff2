module Opcode = Tessera_il.Opcode
module Node = Tessera_il.Node
module Block = Tessera_il.Block
module Meth = Tessera_il.Meth
module Cfg = Tessera_opt.Cfg
module Bitset = Tessera_util.Bitset

type def = { def_id : int; sym : int; block : int; node_uid : int }

type t = { cfg : Cfg.t; defs : def array; reach_in : Bitset.t array }

module Solver = Dataflow.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
end)

let analyze (m : Meth.t) =
  let cfg = Cfg.build m in
  let n = Array.length m.Meth.blocks in
  let nsyms = Array.length m.Meth.symbols in
  (* virtual entry defs first (def_id = symbol id), then real sites in
     block order, statement order, pre-order within each tree *)
  let defs = ref [] in
  let next = ref nsyms in
  for s = nsyms - 1 downto 0 do
    defs := { def_id = s; sym = s; block = -1; node_uid = -1 } :: !defs
  done;
  let by_block = Array.make n [] in
  Array.iteri
    (fun bi (b : Block.t) ->
      List.iter
        (fun tree ->
          Node.fold
            (fun () (n : Node.t) ->
              let is_def =
                match n.Node.op with
                | Opcode.Store -> Array.length n.Node.args = 1
                | Opcode.Inc -> true
                | _ -> false
              in
              if is_def then begin
                let d =
                  { def_id = !next; sym = n.Node.sym; block = bi;
                    node_uid = n.Node.uid }
                in
                incr next;
                defs := d :: !defs;
                by_block.(bi) <- d :: by_block.(bi)
              end)
            () tree)
        (b.Block.stmts @ Block.terminator_nodes b.Block.term))
    m.Meth.blocks;
  let defs = Array.of_list (List.rev !defs) in
  let ndefs = Array.length defs in
  let defs_of_sym = Array.make nsyms [] in
  Array.iter (fun d -> defs_of_sym.(d.sym) <- d.def_id :: defs_of_sym.(d.sym)) defs;
  (* gen: downward-exposed defs (last def per symbol in the block);
     kill: every other def of a symbol the block defines; all_defs:
     everything the block may have defined when a trap escapes to the
     handler *)
  let gen = Array.make n (Bitset.create ndefs) in
  let kill = Array.make n (Bitset.create ndefs) in
  let all_defs = Array.make n (Bitset.create ndefs) in
  for bi = 0 to n - 1 do
    let g = Bitset.create ndefs and k = Bitset.create ndefs in
    let a = Bitset.create ndefs in
    let last = Hashtbl.create 8 in
    List.iter
      (fun d ->
        Bitset.set a d.def_id true;
        Hashtbl.replace last d.sym d.def_id)
      (List.rev by_block.(bi));
    Hashtbl.iter
      (fun sym last_id ->
        Bitset.set g last_id true;
        List.iter
          (fun id -> if id <> last_id then Bitset.set k id true)
          defs_of_sym.(sym))
      last;
    gen.(bi) <- g;
    kill.(bi) <- k;
    all_defs.(bi) <- a
  done;
  let entry = Bitset.create ndefs in
  for s = 0 to nsyms - 1 do
    Bitset.set entry s true
  done;
  let out_of get p =
    let o = Bitset.copy (get p) in
    Bitset.diff_into ~into:o kill.(p);
    ignore (Bitset.union_into ~into:o gen.(p));
    o
  in
  let transfer ~get ~round:_ b =
    let i = Bitset.create ndefs in
    if b = 0 then ignore (Bitset.union_into ~into:i entry);
    List.iter (fun p -> ignore (Bitset.union_into ~into:i (out_of get p))) cfg.Cfg.preds.(b);
    List.iter
      (fun p ->
        ignore (Bitset.union_into ~into:i (get p));
        ignore (Bitset.union_into ~into:i all_defs.(p)))
      cfg.Cfg.exc_preds.(b);
    i
  in
  let reach_in =
    Solver.fixpoint ~n
      ~deps:(Cfg.forward_deps cfg)
      ~order:(Cfg.forward_order cfg)
      ~init:(fun _ -> Bitset.create ndefs)
      ~transfer ()
  in
  { cfg; defs; reach_in }

let density t =
  let total = ref 0 and blocks = ref 0 in
  Array.iteri
    (fun b s ->
      if t.cfg.Cfg.reachable.(b) then begin
        total := !total + Bitset.popcount s;
        incr blocks
      end)
    t.reach_in;
  if !blocks = 0 then 0 else min 255 (!total / !blocks)
