(* The dataflow analysis library: solver convergence (including on
   irreducible CFGs), the interval domain, liveness/reaching-defs
   conservatism around exception handlers, effect summaries, the
   abstract-interpretation soundness property against the interpreter,
   and each lint diagnostic firing on a hand-corrupted pass
   application. *)

module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Node = Tessera_il.Node
module Block = Tessera_il.Block
module Meth = Tessera_il.Meth
module Symbol = Tessera_il.Symbol
module Program = Tessera_il.Program
module Values = Tessera_vm.Values
module Plan = Tessera_opt.Plan
module Manager = Tessera_opt.Manager
module Bitset = Tessera_util.Bitset
module Cfg = Tessera_opt.Cfg
module Interval = Tessera_analysis.Interval
module Live = Tessera_analysis.Live
module Reach = Tessera_analysis.Reach
module Constprop = Tessera_analysis.Constprop
module Effects = Tessera_analysis.Effects
module Summary = Tessera_analysis.Summary
module Lint = Tessera_analysis.Lint

let ic v = Node.iconst Types.Int (Int64.of_int v)
let ld s = Node.load_sym Types.Int s
let add a b = Node.binop Opcode.Add Types.Int a b
let div a b = Node.binop Opcode.Div Types.Int a b

let mk_method ?(validate = true)
    ?(symbols = [| Symbol.temp "t0" Types.Int; Symbol.temp "t1" Types.Int |])
    blocks =
  let m = Meth.make ~name:"A.a()I" ~params:[||] ~ret:Types.Int ~symbols blocks in
  if validate then Tessera_il.Validate.assert_valid_method m;
  m

let one_block ?symbols stmts ret =
  mk_method ?symbols [| Block.make 0 stmts (Block.Return (Some ret)) |]

(* ------------------------------------------------------------------ *)
(* Bitsets                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset () =
  let s = Bitset.create 70 in
  Alcotest.(check int) "width" 70 (Bitset.width s);
  Alcotest.(check bool) "initially empty" false (Bitset.get s 69);
  Bitset.set s 0 true;
  Bitset.set s 69 true;
  Bitset.set s 64 true;
  Alcotest.(check int) "count" 3 (Bitset.popcount s);
  Alcotest.(check (list int)) "fold in order" [ 0; 64; 69 ]
    (List.rev (Bitset.fold (fun i b acc -> if b then i :: acc else acc) s []));
  Bitset.set s 64 false;
  Alcotest.(check bool) "unset" false (Bitset.get s 64);
  let t = Bitset.copy s in
  Bitset.set t 5 true;
  Alcotest.(check bool) "copy is independent" false (Bitset.get s 5);
  Alcotest.(check bool) "union reports change" true
    (Bitset.union_into ~into:s t);
  Alcotest.(check bool) "union reaches fixpoint" false
    (Bitset.union_into ~into:s t);
  Alcotest.(check bool) "now equal" true (Bitset.equal s t);
  Bitset.diff_into ~into:s t;
  Alcotest.(check int) "diff empties" 0 (Bitset.popcount s)

(* ------------------------------------------------------------------ *)
(* Intervals                                                            *)
(* ------------------------------------------------------------------ *)

let iv lo hi = Interval.of_bounds (Int64.of_int lo) (Int64.of_int hi)

let test_interval () =
  Alcotest.(check bool) "byte range" true
    (Interval.equal (Interval.ty_range Types.Byte) (iv (-128) 127));
  Alcotest.(check bool) "long range is top" true
    (Interval.equal (Interval.ty_range Types.Long) Interval.top);
  Alcotest.(check bool) "empty bounds normalize to bot" true
    (Interval.equal (iv 5 3) Interval.bot);
  Alcotest.(check bool) "truncate within range is identity" true
    (Interval.equal
       (Interval.truncate_to Types.Int (Interval.singleton 300L))
       (Interval.singleton 300L));
  Alcotest.(check bool) "truncate out of range widens to the range" true
    (Interval.equal
       (Interval.truncate_to Types.Byte (Interval.singleton 300L))
       (Interval.ty_range Types.Byte));
  Alcotest.(check bool) "join of singletons spans" true
    (Interval.equal (Interval.join (Interval.singleton 1L) (Interval.singleton 5L))
       (iv 1 5));
  Alcotest.(check bool) "mem inside" true (Interval.mem 3L (iv 1 5));
  Alcotest.(check bool) "mem outside" false (Interval.mem 9L (iv 1 5));
  Alcotest.(check bool) "disjoint finite" true (Interval.disjoint (iv 1 2) (iv 5 9));
  Alcotest.(check bool) "overlap not disjoint" false
    (Interval.disjoint (iv 1 5) (iv 5 9));
  Alcotest.(check bool) "top never disjoint" false
    (Interval.disjoint Interval.top (iv 1 2));
  Alcotest.(check bool) "bot never disjoint" false
    (Interval.disjoint Interval.bot (iv 1 2));
  Alcotest.(check bool) "checked add" true
    (Interval.equal (Interval.add (iv 1 2) (iv 10 20)) (iv 11 22));
  Alcotest.(check bool) "overflowing add is top" true
    (Interval.equal
       (Interval.add (Interval.singleton Int64.max_int) (Interval.singleton 1L))
       Interval.top);
  Alcotest.(check bool) "neg flips" true
    (Interval.equal (Interval.neg (iv 1 5)) (iv (-5) (-1)));
  Alcotest.(check bool) "neg min_int is top" true
    (Interval.equal (Interval.neg (Interval.singleton Int64.min_int)) Interval.top);
  Alcotest.(check bool) "widen jumps to top" true
    (Interval.equal (Interval.widen (iv 1 5)) Interval.top)

(* ------------------------------------------------------------------ *)
(* Solver + Cfg                                                         *)
(* ------------------------------------------------------------------ *)

module Bool_solver = Tessera_analysis.Dataflow.Make (struct
  type t = bool

  let equal = Bool.equal
end)

let test_solver_irreducible () =
  (* 0 -> {1,2}, 1 -> 2, 2 -> 1: the classic irreducible pair.  A
     reachability transfer must still reach the all-true fixpoint. *)
  let preds = [| []; [ 0; 2 ]; [ 0; 1 ] |] in
  let deps = [| [| 1; 2 |]; [| 2 |]; [| 1 |] |] in
  let st =
    Bool_solver.fixpoint ~n:3 ~deps ~order:[| 0; 1; 2 |]
      ~init:(fun b -> b = 0)
      ~transfer:(fun ~get ~round:_ b ->
        b = 0 || List.exists (fun p -> get p) preds.(b))
      ()
  in
  Array.iteri
    (fun b v -> Alcotest.(check bool) (Printf.sprintf "block %d reachable" b) true v)
    st

let test_solver_safety_valve () =
  (* a transfer that never stabilizes must hit the step bound, not hang *)
  match
    Bool_solver.fixpoint ~n:1
      ~deps:[| [| 0 |] |]
      ~order:[| 0 |]
      ~init:(fun _ -> false)
      ~transfer:(fun ~get ~round:_ b -> not (get b))
      ()
  with
  | _ -> Alcotest.fail "oscillating transfer reached a fixpoint"
  | exception Failure _ -> ()

let irreducible_meth () =
  (* 0 -> 1|2; 1 -> 2|3; 2 -> 1|3; 3: return.  The {1,2} loop has two
     entries, so it is not reducible. *)
  mk_method
    [|
      Block.make 0 [] (Block.If { cond = ld 0; if_true = 1; if_false = 2 });
      Block.make 1
        [ Node.store_sym 0 (add (ld 0) (ic 1)) ]
        (Block.If { cond = ld 1; if_true = 2; if_false = 3 });
      Block.make 2
        [ Node.store_sym 1 (add (ld 1) (ic 1)) ]
        (Block.If { cond = ld 0; if_true = 1; if_false = 3 });
      Block.make 3 [] (Block.Return (Some (add (ld 0) (ld 1))));
    |]

let test_flow_edges () =
  let m = irreducible_meth () in
  let f = Cfg.build m in
  Alcotest.(check int) "4 blocks" 4 (Array.length f.Cfg.succs);
  Alcotest.(check (list int)) "succs 0" [ 1; 2 ] (List.sort compare f.Cfg.succs.(0));
  Alcotest.(check (list int)) "preds 1" [ 0; 2 ] (List.sort compare f.Cfg.preds.(1));
  Alcotest.(check (list int)) "preds 3" [ 1; 2 ] (List.sort compare f.Cfg.preds.(3));
  Array.iteri
    (fun b r -> Alcotest.(check bool) (Printf.sprintf "%d reachable" b) true r)
    f.Cfg.reachable;
  (* the orders enumerate every block exactly once *)
  let check_order name order =
    Alcotest.(check (list int)) name [ 0; 1; 2; 3 ]
      (List.sort compare (Array.to_list order))
  in
  check_order "forward order" (Cfg.forward_order f);
  check_order "backward order" (Cfg.backward_order f);
  (* exceptional edges show up in deps and exc_preds *)
  let mh =
    mk_method
      [|
        Block.make 0 [] (Block.Goto 1);
        Block.make ~handler:(Some 2) 1 [ Node.store_sym 0 (ic 1) ]
          (Block.Return (Some (ld 0)));
        Block.make 2 [] (Block.Return (Some (ic 9)));
      |]
  in
  let fh = Cfg.build mh in
  Alcotest.(check (list int)) "exc_preds of handler" [ 1 ] fh.Cfg.exc_preds.(2);
  Alcotest.(check bool) "handler is a forward dep of its block" true
    (Array.mem 2 (Cfg.forward_deps fh).(1));
  Alcotest.(check bool) "covered block is a backward dep of its handler" true
    (Array.mem 1 (Cfg.backward_deps fh).(2));
  Alcotest.(check bool) "handler reachable only via the trap edge" true
    fh.Cfg.reachable.(2);
  Alcotest.(check (list int)) "handler-only block seeded after the rpo"
    [ 0; 1; 2 ] (Array.to_list (Cfg.forward_order fh))

(* ------------------------------------------------------------------ *)
(* Liveness and reaching definitions                                    *)
(* ------------------------------------------------------------------ *)

let test_liveness_handler_conservatism () =
  (* t0 is only read in the handler; a trap can fire before the covering
     block's stores, so t0 must stay live at the covering block's entry *)
  let m =
    mk_method
      [|
        Block.make ~handler:(Some 2) 0
          [ Node.store_sym 0 (ic 1); Node.store_sym 1 (ic 2) ]
          (Block.Goto 1);
        Block.make 1 [] (Block.Return (Some (ld 1)));
        Block.make 2 [] (Block.Return (Some (ld 0)));
      |]
  in
  let lv = Live.analyze m in
  Alcotest.(check bool) "handler keeps t0 live at covered entry" true
    (Bitset.get (Live.live_in lv 0) 0);
  Alcotest.(check bool) "pressure at least 1" true (Live.pressure lv >= 1);
  (* on the irreducible method both symbols are live around the loop *)
  let lv2 = Live.analyze (irreducible_meth ()) in
  Alcotest.(check int) "both slots live together" 2 (Live.pressure lv2)

let test_reaching_definitions () =
  let m =
    mk_method
      [|
        Block.make 0 [ Node.store_sym 0 (ic 1) ] (Block.Goto 1);
        Block.make 1
          [ Node.store_sym 0 (add (ld 0) (ic 1)) ]
          (Block.If { cond = ld 1; if_true = 1; if_false = 2 });
        Block.make 2 [] (Block.Return (Some (ld 0)));
      |]
  in
  let r = Reach.analyze m in
  let nsyms = 2 in
  (* every symbol has exactly one virtual entry definition, and they all
     reach the entry block *)
  let virtuals =
    Array.to_list r.Reach.defs
    |> List.filter (fun (d : Reach.def) -> d.Reach.block = -1)
  in
  Alcotest.(check int) "one virtual def per symbol" nsyms (List.length virtuals);
  List.iter
    (fun (d : Reach.def) ->
      Alcotest.(check bool) "virtual def reaches entry" true
        (Bitset.get r.Reach.reach_in.(0) d.Reach.def_id))
    virtuals;
  (* block 2 joins the loop-carried and the straight-line store of t0 *)
  let t0_defs_reaching_exit =
    Array.to_list r.Reach.defs
    |> List.filter (fun (d : Reach.def) ->
           d.Reach.sym = 0 && Bitset.get r.Reach.reach_in.(2) d.Reach.def_id)
  in
  Alcotest.(check bool) "loop join sees the block-1 def" true
    (List.exists (fun (d : Reach.def) -> d.Reach.block = 1) t0_defs_reaching_exit);
  Alcotest.(check bool) "density positive" true (Reach.density r > 0);
  Alcotest.(check bool) "density saturated to a byte" true (Reach.density r <= 255)

(* ------------------------------------------------------------------ *)
(* Constant / interval analysis                                         *)
(* ------------------------------------------------------------------ *)

let test_constprop_basics () =
  let r = Constprop.analyze (one_block [] (add (ic 40) (ic 2))) in
  Alcotest.(check bool) "constant return" true
    (Interval.equal r.Constprop.ret (Interval.singleton 42L));
  Alcotest.(check bool) "some nodes constant" true (r.Constprop.const_nodes > 0);
  Alcotest.(check bool) "fraction in range" true
    (Constprop.const_fraction_pct r >= 0 && Constprop.const_fraction_pct r <= 100);
  (* a two-armed branch joins its return sites *)
  let m =
    mk_method
      [|
        Block.make 0 [] (Block.If { cond = ld 0; if_true = 1; if_false = 2 });
        Block.make 1 [] (Block.Return (Some (ic 1)));
        Block.make 2 [] (Block.Return (Some (ic 2)));
      |]
  in
  let r = Constprop.analyze m in
  Alcotest.(check bool) "join of return sites" true
    (Interval.equal r.Constprop.ret (iv 1 2));
  (* store_coerce truncation: 300 through a Byte slot reads back as 44 *)
  let m =
    one_block
      ~symbols:[| Symbol.temp "b" Types.Byte |]
      [ Node.store_sym 0 (ic 300) ]
      (Node.load_sym Types.Byte 0)
  in
  let r = Constprop.analyze m in
  Alcotest.(check bool) "byte-truncated value covered" true
    (Interval.mem 44L r.Constprop.ret);
  Alcotest.(check bool) "byte slot bounds the interval" false
    (Interval.mem 300L r.Constprop.ret)

let test_constprop_loop_widening () =
  (* i = 0; do { i++ } while (i < 10); return i — must terminate (via
     widening) and cover the concrete result 10 *)
  let m =
    mk_method
      [|
        Block.make 0 [ Node.store_sym 0 (ic 0) ] (Block.Goto 1);
        Block.make 1
          [ Node.mk ~sym:0 ~const:1L Opcode.Inc Types.Void [||] ]
          (Block.If
             {
               cond =
                 Node.binop (Opcode.Compare Opcode.Lt) Types.Int (ld 0) (ic 10);
               if_true = 1;
               if_false = 2;
             });
        Block.make 2 [] (Block.Return (Some (ld 0)));
      |]
  in
  let r = Constprop.analyze m in
  Alcotest.(check bool) "loop result covered" true
    (Interval.mem 10L r.Constprop.ret);
  (* the irreducible method also converges *)
  let r2 = Constprop.analyze (irreducible_meth ()) in
  Alcotest.(check bool) "irreducible ret not bottom" true
    (not (Interval.equal r2.Constprop.ret Interval.bot))

let test_constprop_soundness () =
  QCheck.Test.make ~count:30
    ~name:"constprop: interpreter integer returns lie in the abstract interval"
    (QCheck.make
       ~print:Int64.to_string
       QCheck.Gen.(map Int64.of_int (int_range 0 100_000)))
    (fun seed ->
      let program = Helpers.gen_program seed in
      let entry = program.Program.methods.(program.Program.entry) in
      let r = Constprop.analyze entry in
      List.for_all
        (fun k ->
          match Helpers.run_program program (Helpers.entry_args k) with
          | Ok (Values.Int_v v), _ ->
              if Interval.mem v r.Constprop.ret then true
              else
                QCheck.Test.fail_reportf
                  "seed %Ld arg %d: returned %Ld outside %s" seed k v
                  (Interval.to_string r.Constprop.ret)
          | _ -> true)
        [ 0; 1; 7 ])

(* ------------------------------------------------------------------ *)
(* Effect summaries                                                     *)
(* ------------------------------------------------------------------ *)

let test_effects_direct () =
  Alcotest.(check bool) "arithmetic is pure" true
    (Effects.is_pure (Effects.of_meth (one_block [] (add (ld 0) (ic 1)))));
  Alcotest.(check bool) "constant divisor cannot trap" true
    (Effects.is_pure (Effects.of_meth (one_block [] (div (ld 0) (ic 3)))));
  let e = Effects.of_meth (one_block [] (div (ld 0) (ld 1))) in
  Alcotest.(check bool) "variable divisor may trap" true e.Effects.may_trap;
  Alcotest.(check bool) "trap is the only effect" false e.Effects.reads_heap;
  let sync_m =
    Meth.make
      ~attrs:{ Meth.default_attrs with Meth.synchronized = true }
      ~name:"S.s()I" ~params:[||] ~ret:Types.Int
      ~symbols:[| Symbol.temp "t0" Types.Int |]
      [| Block.make 0 [] (Block.Return (Some (ic 1))) |]
  in
  Alcotest.(check bool) "synchronized attribute" true
    (Effects.of_meth sync_m).Effects.sync;
  let throw_m =
    mk_method
      [|
        Block.make 0 []
          (Block.Throw (Node.mk Opcode.Throw_op Types.Void [||]));
      |]
  in
  Alcotest.(check bool) "throw terminator" true
    (Effects.of_meth throw_m).Effects.throws

let test_effects_program_fixpoint () =
  (* mutual recursion: m0 calls m1, m1 calls m0 and may trap; the closed
     summaries must both carry the trap and the full transitive call set *)
  let m0 =
    Meth.make ~name:"R.zero()I" ~params:[||] ~ret:Types.Int ~symbols:[||]
      [| Block.make 0 [] (Block.Return (Some (Node.call Types.Int ~callee:1 [||]))) |]
  in
  let m1 =
    Meth.make ~name:"R.one()I" ~params:[||] ~ret:Types.Int
      ~symbols:[| Symbol.temp "t0" Types.Int; Symbol.temp "t1" Types.Int |]
      [|
        Block.make 0
          [ Node.store_sym 0 (div (ld 0) (ld 1)) ]
          (Block.Return (Some (Node.call Types.Int ~callee:0 [||])));
      |]
  in
  let p = Program.make ~name:"rec" ~entry:0 [| m0; m1 |] in
  let summaries = Effects.of_program p in
  Array.iteri
    (fun i s ->
      Alcotest.(check bool) (Printf.sprintf "m%d may trap transitively" i) true
        s.Effects.may_trap;
      Alcotest.(check bool) (Printf.sprintf "m%d full call set" i) true
        (Effects.Int_set.equal s.Effects.calls (Effects.Int_set.of_list [ 0; 1 ])))
    summaries;
  Alcotest.(check bool) "leq is reflexive" true
    (Effects.leq summaries.(0) summaries.(0));
  Alcotest.(check bool) "bottom below everything" true
    (Effects.leq Effects.bottom summaries.(0));
  Alcotest.(check bool) "trap not below pure" false
    (Effects.leq summaries.(0) Effects.bottom)

(* ------------------------------------------------------------------ *)
(* Summary features                                                     *)
(* ------------------------------------------------------------------ *)

let test_summary_features () =
  Alcotest.(check int) "five components" 5 Summary.count;
  Alcotest.(check int) "names match count" Summary.count
    (Array.length Summary.names);
  let loop_m =
    mk_method
      [|
        Block.make 0 [ Node.store_sym 0 (ic 0) ] (Block.Goto 1);
        Block.make 1
          [ Node.mk ~sym:0 ~const:1L Opcode.Inc Types.Void [||] ]
          (Block.If
             {
               cond =
                 Node.binop (Opcode.Compare Opcode.Lt) Types.Int (ld 0) (ic 10);
               if_true = 1;
               if_false = 2;
             });
        Block.make 2 [] (Block.Return (Some (ld 0)));
      |]
  in
  let s = Summary.of_meth loop_m in
  Alcotest.(check int) "loop depth 1" 1 s.Summary.max_loop_depth;
  Array.iter
    (fun v ->
      Alcotest.(check bool) "component saturated to a byte" true
        (v >= 0 && v <= 255))
    (Summary.to_array s);
  Alcotest.(check int) "vector length" Summary.count
    (Array.length (Summary.to_array s));
  (* interprocedural purity: a call to a pure callee counts as pure only
     when the program is supplied *)
  let callee =
    Meth.make ~name:"P.pure()I" ~params:[||] ~ret:Types.Int ~symbols:[||]
      [| Block.make 0 [] (Block.Return (Some (ic 5))) |]
  in
  let caller =
    Meth.make ~name:"P.caller()I" ~params:[||] ~ret:Types.Int ~symbols:[||]
      [| Block.make 0 [] (Block.Return (Some (Node.call Types.Int ~callee:1 [||]))) |]
  in
  let p = Program.make ~name:"pure" ~entry:0 [| caller; callee |] in
  Alcotest.(check int) "pure call share with program" 100
    (Summary.of_meth ~program:p caller).Summary.pure_call_pct;
  Alcotest.(check int) "no program, no purity claim" 0
    (Summary.of_meth caller).Summary.pure_call_pct;
  (* the memoized summaries are stable across calls *)
  Alcotest.(check bool) "summaries_for memoizes" true
    (Summary.summaries_for p == Summary.summaries_for p)

(* ------------------------------------------------------------------ *)
(* Lint diagnostics on hand-corrupted pass applications                 *)
(* ------------------------------------------------------------------ *)

let check_pair before after =
  let program = Program.make ~name:"lint" ~entry:0 [| before |] in
  Lint.check_application ~program
    ~summaries:(Effects.of_program program)
    ~pass_index:0 ~pass_name:"corrupt" ~before ~after

let kind_of (d : Lint.diagnostic) = d.Lint.kind

let test_lint_undefined_slot_use () =
  let before =
    one_block [ Node.store_sym 0 (ic 1); ld 0 ] (ic 3)
  in
  let after = one_block [ ld 0 ] (ic 3) in
  match List.map kind_of (check_pair before after) with
  | [ Lint.Undefined_slot_use { symbol = "t0" } ] -> ()
  | ds ->
      Alcotest.failf "expected one Undefined_slot_use, got [%s]"
        (String.concat "; " (List.map Lint.describe_kind ds))

let test_lint_const_contradiction () =
  let before = one_block [] (ic 5) in
  let after = one_block [] (ic 7) in
  match List.map kind_of (check_pair before after) with
  | [ Lint.Const_contradiction _ ] -> ()
  | ds ->
      Alcotest.failf "expected one Const_contradiction, got [%s]"
        (String.concat "; " (List.map Lint.describe_kind ds))

let test_lint_inc_non_integral () =
  let symbols = [| Symbol.temp "t0" Types.Int; Symbol.temp "d" Types.Double |] in
  let before = one_block ~symbols [] (ic 1) in
  let after =
    one_block ~symbols
      [ Node.mk ~sym:1 ~const:1L Opcode.Inc Types.Void [||] ]
      (ic 1)
  in
  match List.map kind_of (check_pair before after) with
  | [ Lint.Inc_non_integral { symbol = "d" } ] -> ()
  | ds ->
      Alcotest.failf "expected one Inc_non_integral, got [%s]"
        (String.concat "; " (List.map Lint.describe_kind ds))

let test_lint_handler_cycle () =
  let blocks handler1 handler2 =
    [|
      Block.make 0 [] (Block.Goto 1);
      Block.make ?handler:handler1 1 [] (Block.Goto 2);
      Block.make ?handler:handler2 2 [] (Block.Return (Some (ic 1)));
    |]
  in
  let before = mk_method (blocks None None) in
  let after = mk_method (blocks (Some (Some 2)) (Some (Some 1))) in
  match List.map kind_of (check_pair before after) with
  | [ Lint.Handler_cycle { blocks } ] ->
      Alcotest.(check (list int)) "cycle blocks" [ 1; 2 ] (List.sort compare blocks)
  | ds ->
      Alcotest.failf "expected one Handler_cycle, got [%s]"
        (String.concat "; " (List.map Lint.describe_kind ds))

let test_lint_effect_introduced () =
  (* both sides read t0 and t1 (so the undefined-use delta stays empty);
     only the division is new *)
  let before = one_block [ ld 1 ] (ld 0) in
  let after = one_block [] (div (ld 0) (ld 1)) in
  match List.map kind_of (check_pair before after) with
  | [ Lint.Effect_introduced { effect_ = "may-trap" } ] -> ()
  | ds ->
      Alcotest.failf "expected one Effect_introduced, got [%s]"
        (String.concat "; " (List.map Lint.describe_kind ds))

let test_lint_structural () =
  let before = one_block [] (ic 1) in
  let after = mk_method ~validate:false [| Block.make 0 [] (Block.Goto 99) |] in
  match List.map kind_of (check_pair before after) with
  | [ Lint.Structural (_ :: _) ] -> ()
  | ds ->
      Alcotest.failf "expected one Structural, got [%s]"
        (String.concat "; " (List.map Lint.describe_kind ds))

let test_lint_clean_pair () =
  (* a legitimate rewrite (constant folding) yields no diagnostics *)
  let before = one_block [] (add (ic 40) (ic 2)) in
  let after = one_block [] (ic 42) in
  Alcotest.(check int) "clean" 0 (List.length (check_pair before after))

let test_lint_strict_raises () =
  let before = one_block [] (ic 5) in
  let after = one_block [] (ic 7) in
  let program = Program.make ~name:"strict" ~entry:0 [| before |] in
  let audit = Lint.auditor ~strict:true program in
  match audit ~pass_index:3 ~pass_name:"boom" ~before ~after with
  | () -> Alcotest.fail "strict auditor did not raise"
  | exception Lint.Violation d ->
      Alcotest.(check int) "pass index carried" 3 d.Lint.pass_index;
      Alcotest.(check string) "pass name carried" "boom" d.Lint.pass_name

let test_lint_hook_integration () =
  (* installing the global hook audits a full Manager.optimize run; a
     clean method stays clean *)
  let m =
    mk_method
      ~symbols:
        [|
          Symbol.temp "i" Types.Int; Symbol.temp "acc" Types.Int;
          Symbol.temp "x" Types.Int;
        |]
      [|
        Block.make 0
          [ Node.store_sym 0 (ic 0); Node.store_sym 2 (ic 3) ]
          (Block.Goto 1);
        Block.make 1
          [
            Node.store_sym 1 (add (ld 1) (ld 2));
            Node.mk ~sym:0 ~const:1L Opcode.Inc Types.Void [||];
          ]
          (Block.If
             {
               cond =
                 Node.binop (Opcode.Compare Opcode.Lt) Types.Int (ld 0) (ic 10);
               if_true = 1;
               if_false = 2;
             });
        Block.make 2 [] (Block.Return (Some (ld 1)));
      |]
  in
  let program = Program.make ~name:"hook" ~entry:0 [| m |] in
  Lint.install ();
  Fun.protect ~finally:Lint.uninstall (fun () ->
      Lint.reset ();
      let r = Manager.optimize ~program ~plan:(Plan.plan Plan.Hot) m in
      Alcotest.(check bool) "passes ran" true (r.Manager.applied <> []);
      Alcotest.(check int) "clean optimize audits clean" 0
        (List.length (Lint.collected ())));
  (* after uninstall the hook is gone *)
  Alcotest.(check bool) "uninstalled" true (Option.is_none !Manager.lint_hook)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "bitsets" `Quick test_bitset;
    Alcotest.test_case "interval domain" `Quick test_interval;
    Alcotest.test_case "solver: irreducible CFG converges" `Quick
      test_solver_irreducible;
    Alcotest.test_case "solver: safety valve" `Quick test_solver_safety_valve;
    Alcotest.test_case "flow: edges, orders, handlers" `Quick test_flow_edges;
    Alcotest.test_case "liveness: handler conservatism" `Quick
      test_liveness_handler_conservatism;
    Alcotest.test_case "reaching definitions" `Quick test_reaching_definitions;
    Alcotest.test_case "constprop: basics" `Quick test_constprop_basics;
    Alcotest.test_case "constprop: loop widening" `Quick
      test_constprop_loop_widening;
    QCheck_alcotest.to_alcotest (test_constprop_soundness ());
    Alcotest.test_case "effects: direct summaries" `Quick test_effects_direct;
    Alcotest.test_case "effects: program fixpoint" `Quick
      test_effects_program_fixpoint;
    Alcotest.test_case "summary features" `Quick test_summary_features;
    Alcotest.test_case "lint: undefined slot use" `Quick
      test_lint_undefined_slot_use;
    Alcotest.test_case "lint: const contradiction" `Quick
      test_lint_const_contradiction;
    Alcotest.test_case "lint: inc of non-integral" `Quick
      test_lint_inc_non_integral;
    Alcotest.test_case "lint: handler cycle" `Quick test_lint_handler_cycle;
    Alcotest.test_case "lint: effect introduced" `Quick
      test_lint_effect_introduced;
    Alcotest.test_case "lint: structural damage" `Quick test_lint_structural;
    Alcotest.test_case "lint: clean rewrite stays clean" `Quick
      test_lint_clean_pair;
    Alcotest.test_case "lint: strict auditor raises" `Quick
      test_lint_strict_raises;
    Alcotest.test_case "lint: manager hook integration" `Quick
      test_lint_hook_integration;
  ]
