module Bitset = Tessera_util.Bitset
module Prng = Tessera_util.Prng

type t = Bitset.t

let width = Tessera_opt.Catalog.count

let null = Bitset.create width

let is_null m = Bitset.popcount m = 0

let disables m i = Bitset.get m i

let enabled_fun m i = not (Bitset.get m i)

let disabled_count = Bitset.popcount

let of_disabled idxs =
  let b = Bitset.create width in
  List.iter (fun i -> Bitset.set b i true) idxs;
  b

let disabled_indices m =
  List.rev (Bitset.fold (fun i set acc -> if set then i :: acc else acc) m [])

let random rng ~density =
  let b = Bitset.create width in
  for i = 0 to width - 1 do
    Bitset.set b i (Prng.bernoulli rng density)
  done;
  b

let progressive_probability ~i ~l =
  if l <= 0 then invalid_arg "Modifier.progressive_probability: l <= 0";
  if i < 0 || i > l then invalid_arg "Modifier.progressive_probability: i out of range";
  float_of_int i *. 0.25 /. float_of_int l

let progressive rng ~i ~l = random rng ~density:(progressive_probability ~i ~l)

let equal = Bitset.equal
let to_string = Bitset.to_string
let of_string s =
  if String.length s <> width then invalid_arg "Modifier.of_string: bad width";
  Bitset.of_string s

let to_bits = Bitset.to_int64_le
let of_bits v = Bitset.of_int64_le ~width v

let pp fmt m = Format.pp_print_string fmt (to_string m)
