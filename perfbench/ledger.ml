(* Host-time spans recorded by the benchmark around its own calls into the
   library's layers.  Spans live in memory while the benchmark runs and
   are written out at the end as Chrome/Perfetto trace JSON; nothing here
   reaches into the program under test. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** enclosing span's id, -1 at the root *)
  rep : int;  (** the repetition of the workload this span belongs to *)
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let rep = ref 0
let now = Unix.gettimeofday
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

let open_span name =
  let parent = match !stack with p :: _ -> p.id | [] -> -1 in
  let s = { id = !next_id; name; parent; rep = !rep; t0 = now (); t1 = nan } in
  incr next_id;
  stack := s :: !stack;
  spans := s :: !spans;
  s

let close_span s =
  s.t1 <- now ();
  stack := List.filter (fun o -> o != s) !stack

(* The innermost open span, if it is named [name]: hook pairs such as
   [pre_compile]/[on_compiled] close the span their first half opened. *)
let top_named name =
  match !stack with s :: _ when s.name = name -> Some s | _ -> None

let span name f =
  if not !enabled then f ()
  else
    let s = open_span name in
    Fun.protect ~finally:(fun () -> close_span s) f

(* Self time per span name over the repetitions accepted by [keep]: each
   span's duration minus the part of it its children cover. *)
let self_times ~keep =
  let closed = List.filter (fun s -> keep s.rep && not (Float.is_nan s.t1)) !spans in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let d = try Hashtbl.find child s.parent with Not_found -> 0.0 in
        Hashtbl.replace child s.parent (d +. (s.t1 -. s.t0)))
    closed;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let c = try Hashtbl.find child s.id with Not_found -> 0.0 in
      let d = try Hashtbl.find self s.name with Not_found -> 0.0 in
      Hashtbl.replace self s.name (d +. (s.t1 -. s.t0 -. c)))
    closed;
  self

let get tbl name = try Hashtbl.find tbl name with Not_found -> 0.0

(* Chrome trace-event JSON: one complete ("X") event per span, in
   microseconds from the first span; the repetition is the thread track so
   Perfetto shows one row per repetition. *)
let write_chrome path =
  let closed = List.rev (List.filter (fun s -> not (Float.is_nan s.t1)) !spans) in
  let base = List.fold_left (fun b s -> Float.min b s.t0) infinity closed in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"rep\":%d}}"
        (if i = 0 then "" else ",")
        s.name s.rep
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent s.rep)
    closed;
  output_string oc "\n]}\n";
  close_out oc
