module Block = Tessera_il.Block
module Meth = Tessera_il.Meth

type t = {
  preds : int list array;
  succs : int list array;
  handler : int option array;
  exc_preds : int list array;
  reachable : bool array;
  rpo : int array;
}

(* [invert edges] lists, for each target, the sources of [edges] in
   increasing order. *)
let invert n edges =
  let inv = Array.make n [] in
  Array.iteri (fun b ts -> List.iter (fun t -> inv.(t) <- b :: inv.(t)) ts) edges;
  Array.map List.rev inv

let build (m : Meth.t) =
  let n = Array.length m.blocks in
  let succs = Array.map Block.successors m.blocks in
  let handler = Array.map (fun (b : Block.t) -> b.Block.handler) m.blocks in
  let preds = invert n succs in
  let exc_preds = invert n (Array.map Option.to_list handler) in
  let reachable = Array.make n false in
  let rec visit b =
    if not reachable.(b) then begin
      reachable.(b) <- true;
      List.iter visit succs.(b);
      Option.iter visit handler.(b)
    end
  in
  if n > 0 then visit 0;
  (* Reverse post-order over normal edges. *)
  let seen = Array.make n false in
  let post = ref [] in
  let rec dfs b =
    if not seen.(b) then begin
      seen.(b) <- true;
      List.iter dfs succs.(b);
      post := b :: !post
    end
  in
  if n > 0 then dfs 0;
  { preds; succs; handler; exc_preds; reachable; rpo = Array.of_list !post }

let size t = Array.length t.succs

let single_pred t b = match t.preds.(b) with [ p ] -> Some p | _ -> None

(* The rpo covers blocks reachable over normal edges only; handler-only
   blocks (and unreachable stragglers) are appended so every block gets
   seeded into a worklist at least once. *)
let forward_order t =
  let n = size t in
  let seen = Array.make n false in
  Array.iter (fun b -> seen.(b) <- true) t.rpo;
  let extra = ref [] in
  for b = n - 1 downto 0 do
    if not seen.(b) then extra := b :: !extra
  done;
  Array.append t.rpo (Array.of_list !extra)

let backward_order t =
  let fwd = forward_order t in
  let k = Array.length fwd in
  Array.init k (fun i -> fwd.(k - 1 - i))

let forward_deps t =
  Array.init (size t) (fun b ->
      let ds = match t.handler.(b) with Some h -> h :: t.succs.(b) | None -> t.succs.(b) in
      Array.of_list (List.sort_uniq compare ds))

let backward_deps t =
  Array.init (size t) (fun b ->
      Array.of_list (List.sort_uniq compare (t.preds.(b) @ t.exc_preds.(b))))

let dominators t =
  let n = size t in
  (* iterative dataflow over normal + exception edges:
     dom(entry) = {entry}; dom(b) = {b} ∪ ⋂ dom(preds) *)
  let dom = Array.init n (fun _ -> Array.make n true) in
  if n > 0 then begin
    for x = 0 to n - 1 do
      dom.(0).(x) <- x = 0
    done;
    let changed = ref true in
    while !changed do
      changed := false;
      for b = 1 to n - 1 do
        match (t.preds.(b), t.exc_preds.(b)) with
        | [], [] -> () (* unreachable: keep the all-true convention *)
        | ps, es ->
            for x = 0 to n - 1 do
              let inter =
                x = b
                || List.for_all (fun p -> dom.(p).(x)) ps
                   && List.for_all (fun p -> dom.(p).(x)) es
              in
              if dom.(b).(x) <> inter then begin
                dom.(b).(x) <- inter;
                changed := true
              end
            done
      done
    done
  end;
  dom

let is_back_edge dom u v = dom.(u).(v)
