type t = { nbits : int; words : Bytes.t }

(* One byte per 8 bits.  Bits past [nbits] in the last byte stay zero:
   [set] is bounds-checked and the set operations preserve zeros, so
   [popcount] and [equal] can work on whole bytes. *)

let create nbits =
  if nbits < 0 then invalid_arg "Bitset.create: negative width";
  { nbits; words = Bytes.make ((nbits + 7) / 8) '\000' }

let width t = t.nbits

let copy t = { nbits = t.nbits; words = Bytes.copy t.words }

let check t i =
  if i < 0 || i >= t.nbits then invalid_arg "Bitset: index out of bounds"

let get t i =
  check t i;
  Char.code (Bytes.get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i b =
  check t i;
  let byte = Char.code (Bytes.get t.words (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if b then byte lor mask else byte land lnot mask in
  Bytes.set t.words (i lsr 3) (Char.chr (byte land 0xff))

let check_widths name a b =
  if a.nbits <> b.nbits then invalid_arg ("Bitset." ^ name ^ ": width mismatch")

(* Both set operations take 8 bytes at a time, then the byte tail. *)
let union_into ~into s =
  check_widths "union_into" into s;
  let a = into.words and b = s.words in
  let n = Bytes.length a in
  let changed = ref false in
  let i = ref 0 in
  while !i + 8 <= n do
    let x = Bytes.get_int64_ne a !i in
    let u = Int64.logor x (Bytes.get_int64_ne b !i) in
    if not (Int64.equal u x) then begin
      Bytes.set_int64_ne a !i u;
      changed := true
    end;
    i := !i + 8
  done;
  while !i < n do
    let x = Bytes.get_uint8 a !i in
    let u = x lor Bytes.get_uint8 b !i in
    if u <> x then begin
      Bytes.set_uint8 a !i u;
      changed := true
    end;
    incr i
  done;
  !changed

let diff_into ~into s =
  check_widths "diff_into" into s;
  let a = into.words and b = s.words in
  let n = Bytes.length a in
  let i = ref 0 in
  while !i + 8 <= n do
    Bytes.set_int64_ne a !i
      (Int64.logand (Bytes.get_int64_ne a !i) (Int64.lognot (Bytes.get_int64_ne b !i)));
    i := !i + 8
  done;
  while !i < n do
    Bytes.set_uint8 a !i (Bytes.get_uint8 a !i land lnot (Bytes.get_uint8 b !i));
    incr i
  done

let byte_popcount =
  let rec pop v = if v = 0 then 0 else (v land 1) + pop (v lsr 1) in
  String.init 256 (fun v -> Char.chr (pop v))

let popcount t =
  let count = ref 0 in
  for i = 0 to Bytes.length t.words - 1 do
    count := !count + Char.code byte_popcount.[Bytes.get_uint8 t.words i]
  done;
  !count

let equal a b = a.nbits = b.nbits && Bytes.equal a.words b.words

let to_string t = String.init t.nbits (fun i -> if get t i then '1' else '0')

let of_string s =
  let t = create (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set t i true
      | _ -> invalid_arg "Bitset.of_string: expected '0' or '1'")
    s;
  t

let to_int64_le t =
  if t.nbits > 64 then invalid_arg "Bitset.to_int64_le: width > 64";
  let acc = ref 0L in
  for i = t.nbits - 1 downto 0 do
    acc := Int64.logor (Int64.shift_left !acc 1) (if get t i then 1L else 0L)
  done;
  !acc

let of_int64_le ~width v =
  let t = create width in
  for i = 0 to min width 64 - 1 do
    set t i (Int64.logand (Int64.shift_right_logical v i) 1L = 1L)
  done;
  t

let fold f t init =
  let acc = ref init in
  for i = 0 to t.nbits - 1 do
    acc := f i (get t i) !acc
  done;
  !acc
