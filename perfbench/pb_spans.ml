(** The traced run's span recorder and exact counters.

    Spans are recorded by the benchmark's own code around each call into
    a layer's public functions: name, start, end, the enclosing span, and
    the unit of work (bug, seed or program) they belong to.  They stay in
    memory and are written out once, at the end, as Chrome trace_event
    JSON that Perfetto opens like [Trace] output.  When recording is off,
    [span] is a plain call.

    Counters (steps, instruction counts, pass rounds, compiles, GC words)
    are recorded whether or not spans are, per unit, so two passes over
    the same units can be compared exactly. *)

type span = {
  id : int;
  parent : int;  (** enclosing span's [id]; -1 at top level *)
  name : string;  (** "<layer>.<what>", e.g. "cfront.lex" *)
  unit_ : string;
  t0 : float;
  mutable t1 : float;
}

let recording = ref false
let spans : span list ref = ref []  (* most recently finished first *)
let stack : span list ref = ref []
let next_id = ref 0
let current_unit = ref ""

let span (name : string) (f : unit -> 'a) : 'a =
  if not !recording then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    incr next_id;
    let s =
      { id = !next_id; parent; name; unit_ = !current_unit;
        t0 = Pb_util.now (); t1 = 0. }
    in
    stack := s :: !stack;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- Pb_util.now ();
        stack := List.tl !stack;
        spans := s :: !spans)
  end

(** The layer a span or counter belongs to: the module family its name
    starts with.  Differential testing, its oracle and the campaign farm
    form one layer. *)
let layer_of (name : string) : string =
  let head =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  match head with "oracle" | "campaign" -> "difftest" | h -> h

let layers =
  [ "cfront"; "lower"; "ir"; "opt"; "interp"; "jit"; "native"; "sanitizers";
    "engine"; "difftest"; "proc" ]

(* ---------------- counters ---------------- *)

(* (unit, counter) -> value, for the pass being recorded *)
let counters : (string * string, float) Hashtbl.t = Hashtbl.create 256

let count (name : string) (v : int) : unit =
  let k = (!current_unit, name) in
  let old = Option.value ~default:0. (Hashtbl.find_opt counters k) in
  Hashtbl.replace counters k (old +. float_of_int v)

let countf (name : string) (v : float) : unit =
  let k = (!current_unit, name) in
  let old = Option.value ~default:0. (Hashtbl.find_opt counters k) in
  Hashtbl.replace counters k (old +. v)

(** Run one unit of work under [name], counting its GC words.
    [Gc.minor_words] is exact; the [quick_stat] figures move only at
    collections. *)
let in_unit (name : string) (f : unit -> 'a) : 'a =
  current_unit := name;
  let m0 = Gc.minor_words () and g0 = Gc.quick_stat () in
  let r = f () in
  let m1 = Gc.minor_words () and g1 = Gc.quick_stat () in
  countf "gc.minor_words" (m1 -. m0);
  countf "gc.major_words" (g1.Gc.major_words -. g0.Gc.major_words);
  count "gc.major_collections"
    (g1.Gc.major_collections - g0.Gc.major_collections);
  r

let take_counters () =
  let c = Hashtbl.copy counters in
  Hashtbl.reset counters;
  c

let total (c : (string * string, float) Hashtbl.t) (name : string) : float =
  Hashtbl.fold (fun (_, n) v acc -> if n = name then acc +. v else acc) c 0.

(** Counter names whose per-unit values differ between two passes over
    the same units.  [ignore] drops counters that legitimately differ
    (GC words, when one pass also records spans). *)
let nondeterministic ?(ignore = fun (_ : string) -> false) a b : string list =
  let names = Hashtbl.create 32 in
  let cmp x y =
    Hashtbl.iter
      (fun ((_, n) as k) v ->
        if not (ignore n) then
          match Hashtbl.find_opt y k with
          | Some v' when v' = v -> ()
          | _ -> Hashtbl.replace names n ())
      x
  in
  cmp a b;
  cmp b a;
  List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) names [])

(* ---------------- analysis of the recorded spans ---------------- *)

let reset () =
  spans := [];
  stack := [];
  next_id := 0;
  Hashtbl.reset counters

let dur s = s.t1 -. s.t0

(** Total seconds of spans called [name]. *)
let sum_named (name : string) : float =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. dur s else acc)
    0. !spans

(** Durations of the spans called [name] in unit [u], oldest first. *)
let durations ~(unit_ : string) (name : string) : float list =
  List.rev
    (List.filter_map
       (fun s -> if s.name = name && s.unit_ = unit_ then Some (dur s) else None)
       !spans)

(** Self time of every layer, seconds: each span's duration minus what
    its direct children cover, summed by layer. *)
let self_times () : (string * float) list =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      let l = layer_of s.name in
      Hashtbl.replace by_layer l
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_layer l)))
    !spans;
  List.map
    (fun l -> (l, Option.value ~default:0. (Hashtbl.find_opt by_layer l)))
    layers

(** Seconds covered by top-level spans (the rest of a traced pass is
    the benchmark's own bookkeeping and work no span names). *)
let covered () : float =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. dur s else acc)
    0. !spans

(** Chrome trace_event JSON of every recorded span, as complete ("X")
    events carrying their id, parent and unit. *)
let chrome_trace () : string =
  let all = List.sort (fun a b -> compare a.t0 b.t0) !spans in
  let origin = match all with s :: _ -> s.t0 | [] -> 0. in
  let us t = (t -. origin) *. 1e6 in
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\
         \"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":\"%d\",\
         \"parent\":\"%d\",\"unit\":\"%s\"}}"
        (Metrics.json_escape s.name) (layer_of s.name) (us s.t0)
        (us s.t1 -. us s.t0) s.id s.parent (Metrics.json_escape s.unit_))
    all;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
