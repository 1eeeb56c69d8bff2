module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Node = Tessera_il.Node
module Block = Tessera_il.Block
module Symbol = Tessera_il.Symbol
module Meth = Tessera_il.Meth
module Cfg = Tessera_opt.Cfg

type result = {
  cfg : Cfg.t;
  in_envs : Interval.t array array;
  ret : Interval.t;
  const_nodes : int;
  total_nodes : int;
}

(* Per-block solver state: the environment at block exit along the
   normal edge, and the join of every intermediate environment for the
   exceptional edge (a trap can escape after any prefix of the block's
   stores). *)
module St = struct
  type t = { out_env : Interval.t array; exc_env : Interval.t array }

  let env_equal a b =
    Array.length a = Array.length b
    && (let ok = ref true in
        Array.iteri (fun i x -> if not (Interval.equal x b.(i)) then ok := false) a;
        !ok)

  let equal a b = env_equal a.out_env b.out_env && env_equal a.exc_env b.exc_env
end

module Solver = Dataflow.Make (St)

let analyze (m : Meth.t) =
  let cfg = Cfg.build m in
  let nblocks = Array.length m.Meth.blocks in
  let nsyms = Array.length m.Meth.symbols in
  let sym_ty s = m.Meth.symbols.(s).Symbol.ty in
  let integral s = Types.is_integral (sym_ty s) in
  (* Entry environment mirrors [Interp.run]'s initialisation: arguments
     are store-coerced to the symbol type (anything representable lands
     in the type's range; 0 covers the default for unbound arguments),
     integral temporaries default to 0.  Non-integral symbols are never
     tracked. *)
  let entry_env =
    Array.init nsyms (fun i ->
        let s = m.Meth.symbols.(i) in
        if not (Types.is_integral s.Symbol.ty) then Interval.top
        else
          match s.Symbol.kind with
          | Symbol.Arg -> Interval.ty_range s.Symbol.ty
          | Symbol.Temp -> Interval.singleton 0L)
  in
  (* Abstract evaluation threading the environment exactly in the
     interpreter's evaluation order.  The returned interval covers every
     [as_int]-visible outcome of the node: if the value is [Int_v v]
     then [mem v iv]; if it is [Null_v]/[Void_v] (read as 0) then
     [mem 0 iv]; whenever [Float_v] is possible the interval is [Top].
     Object/array values trap under [as_int], so they need no cover. *)
  let rec eval ~env ~exc ~on_node (n : Node.t) =
    let ev x = eval ~env ~exc ~on_node x in
    let set_sym s iv =
      let iv = if integral s then iv else Interval.top in
      env.(s) <- iv;
      exc.(s) <- Interval.join exc.(s) iv
    in
    let void_iv = Interval.singleton 0L in
    let iv =
      match n.Node.op with
      | Opcode.Loadconst ->
          if Types.is_floating n.Node.ty then Interval.top
          else Interval.singleton n.Node.const
      | Opcode.Load -> (
          match Array.length n.Node.args with
          | 0 -> if integral n.Node.sym then env.(n.Node.sym) else Interval.top
          | 1 ->
              ignore (ev n.Node.args.(0));
              Interval.top
          | _ ->
              ignore (ev n.Node.args.(0));
              ignore (ev n.Node.args.(1));
              Interval.top)
      | Opcode.Store -> (
          match Array.length n.Node.args with
          | 1 ->
              let v = ev n.Node.args.(0) in
              let vty = n.Node.args.(0).Node.ty in
              let sty = sym_ty n.Node.sym in
              (* store_coerce: integral rhs truncates to the slot type;
                 any other value lands within the slot type's range (or
                 traps on use) *)
              let stored =
                if Types.is_integral vty then Interval.truncate_to sty v
                else Interval.ty_range sty
              in
              set_sym n.Node.sym stored;
              void_iv
          | 2 ->
              ignore (ev n.Node.args.(0));
              ignore (ev n.Node.args.(1));
              void_iv
          | _ ->
              ignore (ev n.Node.args.(0));
              ignore (ev n.Node.args.(1));
              ignore (ev n.Node.args.(2));
              void_iv)
      | Opcode.Inc ->
          let sty = sym_ty n.Node.sym in
          set_sym n.Node.sym
            (Interval.truncate_to sty
               (Interval.add env.(n.Node.sym)
                  (Interval.singleton n.Node.const)));
          void_iv
      | Opcode.Compare _ ->
          ignore (ev n.Node.args.(0));
          ignore (ev n.Node.args.(1));
          Interval.of_bounds 0L 1L
      | Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Div | Opcode.Rem
      | Opcode.Or | Opcode.And | Opcode.Xor | Opcode.Shift _ ->
          let a = ev n.Node.args.(0) in
          let b = ev n.Node.args.(1) in
          if Types.is_floating n.Node.ty then Interval.top
          else begin
            match n.Node.op with
            | Opcode.Add -> Interval.truncate_to n.Node.ty (Interval.add a b)
            | Opcode.Sub -> Interval.truncate_to n.Node.ty (Interval.sub a b)
            | Opcode.Mul -> Interval.truncate_to n.Node.ty (Interval.mul a b)
            | Opcode.Div | Opcode.Rem -> (
                match (Interval.is_singleton a, Interval.is_singleton b) with
                | Some x, Some y
                  when (not (Int64.equal y 0L))
                       && not
                            (Int64.equal x Int64.min_int
                            && Int64.equal y (-1L)) ->
                    let q =
                      if Opcode.equal n.Node.op Opcode.Div then Int64.div x y
                      else Int64.rem x y
                    in
                    Interval.truncate_to n.Node.ty (Interval.singleton q)
                | _ -> Interval.ty_range n.Node.ty)
            | _ -> Interval.ty_range n.Node.ty
          end
      | Opcode.Neg ->
          let a = ev n.Node.args.(0) in
          if Types.is_floating n.Node.ty then Interval.top
          else Interval.truncate_to n.Node.ty (Interval.neg a)
      | Opcode.Cast Opcode.C_check -> ev n.Node.args.(0)
      | Opcode.Cast Opcode.C_address | Opcode.Cast Opcode.C_object ->
          ev n.Node.args.(0)
      | Opcode.Cast k ->
          let a = ev n.Node.args.(0) in
          let target =
            match Opcode.cast_target k with Some t -> t | None -> n.Node.ty
          in
          if Types.is_floating target then Interval.top
          else Interval.truncate_to target a
      | Opcode.New -> Interval.top
      | Opcode.Newarray ->
          ignore (ev n.Node.args.(0));
          Interval.top
      | Opcode.Newmultiarray ->
          ignore (ev n.Node.args.(0));
          ignore (ev n.Node.args.(1));
          Interval.top
      | Opcode.Instanceof ->
          ignore (ev n.Node.args.(0));
          Interval.of_bounds 0L 1L
      | Opcode.Synchronization _ ->
          Array.iter (fun a -> ignore (ev a)) n.Node.args;
          void_iv
      | Opcode.Throw_op ->
          Array.iter (fun a -> ignore (ev a)) n.Node.args;
          void_iv
      | Opcode.Branch_op -> ev n.Node.args.(0)
      | Opcode.Call ->
          Array.iter (fun a -> ignore (ev a)) n.Node.args;
          Interval.top
      | Opcode.Arrayop Opcode.Bounds_check ->
          ignore (ev n.Node.args.(0));
          ignore (ev n.Node.args.(1));
          void_iv
      | Opcode.Arrayop Opcode.Array_copy ->
          Array.iter (fun a -> ignore (ev a)) n.Node.args;
          void_iv
      | Opcode.Arrayop Opcode.Array_cmp ->
          ignore (ev n.Node.args.(0));
          ignore (ev n.Node.args.(1));
          Interval.top
      | Opcode.Arrayop Opcode.Array_length ->
          ignore (ev n.Node.args.(0));
          Interval.of_bounds 0L 1048576L
      | Opcode.Mixedop ->
          Array.iter (fun a -> ignore (ev a)) n.Node.args;
          if Types.is_floating n.Node.ty then Interval.top
          else if Types.equal n.Node.ty Types.Void then void_iv
          else Interval.ty_range n.Node.ty
    in
    on_node n iv;
    iv
  in
  let apply_block ?(on_node = fun _ _ -> ()) bi in_env =
    let env = Array.copy in_env in
    let exc = Array.copy in_env in
    let b = m.Meth.blocks.(bi) in
    List.iter (fun s -> ignore (eval ~env ~exc ~on_node s)) b.Block.stmts;
    let ret_site =
      match b.Block.term with
      | Block.Goto _ | Block.Return None -> None
      | Block.If { cond; _ } ->
          ignore (eval ~env ~exc ~on_node cond);
          None
      | Block.Return (Some v) ->
          let iv = eval ~env ~exc ~on_node v in
          Some (v.Node.ty, iv)
      | Block.Throw v ->
          ignore (eval ~env ~exc ~on_node v);
          None
    in
    (env, exc, ret_site)
  in
  let join_into acc src =
    Array.iteri (fun i x -> acc.(i) <- Interval.join acc.(i) x) src
  in
  let in_of get b =
    let acc =
      if b = 0 then Array.copy entry_env else Array.make nsyms Interval.bot
    in
    List.iter (fun p -> join_into acc (get p).St.out_env) cfg.Cfg.preds.(b);
    List.iter (fun p -> join_into acc (get p).St.exc_env) cfg.Cfg.exc_preds.(b);
    acc
  in
  let transfer ~get ~round b =
    let env, exc, _ = apply_block b (in_of get b) in
    (* widen a still-changing block after a few rounds: any entry that
       keeps moving jumps straight to Top *)
    if round >= 3 then begin
      let cur = get b in
      Array.iteri
        (fun i x ->
          if not (Interval.equal x cur.St.out_env.(i)) then env.(i) <- Interval.top)
        env;
      Array.iteri
        (fun i x ->
          if not (Interval.equal x cur.St.exc_env.(i)) then exc.(i) <- Interval.top)
        exc
    end;
    { St.out_env = env; St.exc_env = exc }
  in
  let st =
    Solver.fixpoint ~n:nblocks
      ~deps:(Cfg.forward_deps cfg)
      ~order:(Cfg.forward_order cfg)
      ~init:(fun _ ->
        {
          St.out_env = Array.make nsyms Interval.bot;
          St.exc_env = Array.make nsyms Interval.bot;
        })
      ~transfer ()
  in
  let in_envs = Array.init nblocks (fun b -> in_of (fun p -> st.(p)) b) in
  let const_nodes = ref 0 and total_nodes = ref 0 in
  let ret = ref Interval.bot in
  let ret_integral = Types.is_integral m.Meth.ret in
  Array.iteri
    (fun b in_env ->
      if cfg.Cfg.reachable.(b) then begin
        let on_node (n : Node.t) iv =
          incr total_nodes;
          if Types.is_integral n.Node.ty && Interval.is_singleton iv <> None
          then incr const_nodes
        in
        let _, _, ret_site = apply_block ~on_node b in_env in
        match ret_site with
        | None -> ()
        | Some (vty, iv) ->
            let site =
              if not ret_integral then Interval.top
              else if Types.is_integral vty then
                Interval.truncate_to m.Meth.ret iv
              else Interval.ty_range m.Meth.ret
            in
            ret := Interval.join !ret site
      end)
    in_envs;
  {
    cfg;
    in_envs;
    ret = !ret;
    const_nodes = !const_nodes;
    total_nodes = !total_nodes;
  }

let const_fraction_pct r =
  if r.total_nodes = 0 then 0 else 100 * r.const_nodes / r.total_nodes
