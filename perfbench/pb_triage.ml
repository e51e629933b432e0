(** Workload [triage]: paper §4.1 as a user runs it.  Every corpus bug
    runs as a cold `sulong corpus --id=ID` process (Safe Sulong plus ASan
    and Valgrind at -O0 and -O3), one after another in an order shuffled
    by the seed, with a cold `sulong run hello.c` after every other bug.  A
    closed loop with one client. *)

open Pb_util

let reference_file = "perfbench/reference/triage.tsv"
let hello_file = Filename.concat out_dir "hello.c"
let hello_output = "Hello, World!\n"

(* Safe Sulong, ASan -O0, ASan -O3, Valgrind -O0, Valgrind -O3 *)
let tools = Engine.comparison_tools
let tool_names = List.map Engine.tool_name tools

(** One bug's verdicts, in [tools] order ("FOUND (kind)", "missed", ...). *)
type row = string list

type ctx = {
  sulong : string;
  seed : int;
  reference : (string * row) list;  (** corpus order *)
}

let load_reference (path : string) : (string * row) list =
  let ic = open_in_bin path in
  let rec loop acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | l when String.length l = 0 || l.[0] = '#' -> loop acc
    | l -> (
      match String.split_on_char '\t' l with
      | id :: row when List.length row = List.length tools ->
        loop ((id, row) :: acc)
      | _ -> failwith ("malformed reference line: " ^ l))
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> loop [])

(** Safe Sulong's verdict follows from the ground truth alone: every bug
    is found, as the managed error its category names (a missing vararg
    is an out-of-bounds read of the varargs area). *)
let ground_truth_verdict (p : Groundtruth.program) : string =
  match p.Groundtruth.category with
  | Groundtruth.Oob _ | Groundtruth.Varargs -> "FOUND (out-of-bounds)"
  | Groundtruth.Null_dereference -> "FOUND (null-dereference)"
  | Groundtruth.Use_after_free -> "FOUND (use-after-free)"

(** The per-bug gate: all five verdicts equal the frozen matrix, and
    Safe Sulong's equals the ground truth. *)
let bug_ok (reference : (string * row) list) (id : string) (got : row) : bool =
  match (List.assoc_opt id reference, Corpus.find id) with
  | Some want, Some p -> got = want && List.hd got = ground_truth_verdict p
  | _ -> false

let found v = String.length v >= 5 && String.sub v 0 5 = "FOUND"

let ids_of ps = List.sort compare (List.map (fun p -> p.Groundtruth.id) ps)

(** The paper-totals gate over one complete pass: 68/60/56/34/25 FOUND
    (243 in all), the 8 bugs both ASan and Valgrind miss, and the 4 that
    ASan loses at -O3. *)
let totals_ok (matrix : (string * row) list) : bool =
  let col i = List.map (fun (id, row) -> (id, List.nth row i)) matrix in
  let count i = List.length (List.filter (fun (_, v) -> found v) (col i)) in
  let counts = List.init (List.length tools) count in
  let ids pred =
    List.sort compare
      (List.filter_map (fun (id, row) -> if pred row then Some id else None) matrix)
  in
  let missed_by_both =
    ids (fun row -> List.for_all (fun v -> not (found v)) (List.tl row))
  in
  let o3_lost =
    ids (fun row -> found (List.nth row 1) && not (found (List.nth row 2)))
  in
  counts = [ 68; 60; 56; 34; 25 ]
  && List.fold_left ( + ) 0 counts = 243
  && missed_by_both = ids_of Corpus.expected_missed_by_both
  && o3_lost = ids_of Corpus.expected_o3_folded

(** Parse the verdict lines of `sulong corpus --id=ID`. *)
let parse_verdicts (out : string) : row =
  let lines = String.split_on_char '\n' out in
  List.map
    (fun name ->
      let prefix = "  " ^ name in
      let pl = String.length prefix in
      match
        List.find_opt
          (fun l -> String.length l > pl && String.sub l 0 pl = prefix)
          lines
      with
      | Some l -> String.trim (String.sub l pl (String.length l - pl))
      | None -> "?")
    tool_names

let cold_bug (ctx : ctx) (id : string) : row * float =
  let status, out, dt = run_process ctx.sulong [ "corpus"; "--id=" ^ id ] in
  ((if exited_ok status then parse_verdicts out else [ "exit" ]), dt)

let hello_ok ?(expected = hello_output) (status, out, _) =
  exited_ok status && out = expected

let probes = ref 0

(** A cold `sulong run hello.c`: the start-up probe every workload runs.
    The in-process workloads run it every [probe_every] seconds.  Probes
    take the allowed CPUs in turn: on a shared host one core can run
    about 1.5x slower than another for seconds at a time, and a parent
    busy on one CPU would leave every probe to the other. *)
let cold_hello ~(sulong : string) (t : tally) : float =
  let run () = run_process sulong [ "run"; hello_file ] in
  let ((_, _, dt) as r) =
    match cpus with
    | [] -> run ()
    | _ -> on_cpu (List.nth cpus (!probes mod List.length cpus)) run
  in
  incr probes;
  check t (hello_ok r) (fun () -> "cold hello output");
  dt

let probe_every = 0.25

(** The start-up metric from the probes' times in ms, printed as [name]:
    their mean without the lowest and highest tenth.  The probe times are
    bimodal, as cores switch between states about 1.5x apart; a median
    jumps from one mode to the other as the share of slow probes crosses
    one half, where a mean moves in proportion to it. *)
let startup_ms (name : string) (hello_ms : float list) : float =
  let v = trimmed_mean hello_ms in
  info name v "ms"
    (Printf.sprintf "n=%d, trimmed mean; median %.4f" (List.length hello_ms)
       (Stats.median hello_ms));
  v

let write_hello () =
  ensure_out_dir ();
  write_file hello_file Benchprogs.hello.Benchprogs.b_source

let setup ~(sulong : string) ~(seed : int) : ctx =
  let reference = load_reference reference_file in
  if List.map fst reference <> List.map (fun p -> p.Groundtruth.id) Corpus.all
  then failwith "reference matrix does not list the corpus bugs in order";
  if not (totals_ok reference) then
    failwith "reference matrix does not match the paper totals";
  write_hello ();
  (* page the binary in and check it lists the corpus *)
  let status, out, _ = run_process sulong [ "corpus" ] in
  if not (exited_ok status) || List.length (String.split_on_char '\n' out) < 68
  then failwith "sulong corpus did not list the corpus";
  { sulong; seed; reference }

(** Cold bugs until [seconds] have passed and at least one complete
    pass is done. *)
let measure (ctx : ctx) ~(seconds : float) : outcome =
  let rng = Prng.create ctx.seed in
  let t = tally () in
  let bug_ms = ref [] and per_bug = Hashtbl.create 68 and hello_ms = ref [] in
  let deadline = now () +. seconds in
  let passes = ref 0 and stop = ref false in
  let ids = List.map fst ctx.reference in
  while not !stop do
    let matrix = ref [] in
    List.iteri
      (fun i id ->
        if not !stop then begin
          let row, dt = cold_bug ctx id in
          check t (bug_ok ctx.reference id row) (fun () ->
              Printf.sprintf "%s: [%s]" id (String.concat "; " row));
          matrix := (id, row) :: !matrix;
          bug_ms := (dt *. 1000.) :: !bug_ms;
          Hashtbl.replace per_bug id
            ((dt *. 1000.)
            :: Option.value ~default:[] (Hashtbl.find_opt per_bug id));
          if i mod 2 = 0 then
            hello_ms := (cold_hello ~sulong:ctx.sulong t *. 1000.) :: !hello_ms;
          if !passes >= 1 && now () > deadline then stop := true
        end)
      (shuffle rng ids);
    if List.length !matrix = List.length ids then begin
      incr passes;
      check t (totals_ok !matrix) (fun () -> "paper totals of a pass");
      if now () > deadline then stop := true
    end
  done;
  let n = List.length !bug_ms in
  let p50 = Stats.median !bug_ms and p90 = Stats.quantile !bug_ms 0.9 in
  let geo =
    geomean (Hashtbl.fold (fun _ xs acc -> Stats.median xs :: acc) per_bug [])
  in
  let per_s = rate_per_s !bug_ms in
  if not (p90_ready n) then
    Printf.eprintf "perfbench: only %d bugs, p90 has fewer than 10 beyond it\n" n;
  info "triage.bug_ms_p50" p50 "ms" (Printf.sprintf "n=%d" n);
  info "triage.bug_ms_p90" p90 "ms" (Printf.sprintf "n=%d" n);
  info "triage.bugs_per_s" per_s "1/s" (Printf.sprintf "%d passes" !passes);
  let startup = startup_ms "triage.startup_ms" !hello_ms in
  {
    attempted = t.tried;
    failed = t.bad;
    metrics =
      [
        ("unit_ms_p50", p50); ("unit_ms_p90", p90); ("unit_ms_geo", geo);
        ("units_per_s", per_s); ("startup_ms", startup);
        ("peak_rss_mb", children_rss_mb ());
      ];
  }

let engine_span = function
  | Engine.Safe_sulong -> "engine.safe_sulong"
  | Engine.Asan Pipeline.O0 -> "engine.asan_o0"
  | Engine.Asan Pipeline.O3 -> "engine.asan_o3"
  | Engine.Valgrind Pipeline.O0 -> "engine.valgrind_o0"
  | Engine.Valgrind Pipeline.O3 -> "engine.valgrind_o3"
  | Engine.Clang Pipeline.O0 -> "engine.clang_o0"
  | Engine.Clang Pipeline.O3 -> "engine.clang_o3"

(** Traced unit: one bug, each tool through the spelled-out pipeline and,
    for the warm in-process comparison, through [Engine.run]. *)
let bug_unit (ctx : ctx) (t : tally) (p : Groundtruth.program) : unit =
  let argv = p.Groundtruth.argv and input = p.Groundtruth.input in
  let step_limit = 50_000_000 in
  let verdicts run =
    List.map (fun tool -> Outcome.short (run tool)) tools
  in
  let engine =
    verdicts (fun tool ->
        Pb_spans.span (engine_span tool) (fun () ->
            (Engine.run ~argv ~input ~step_limit tool p.Groundtruth.source)
              .Engine.outcome))
  in
  let layered =
    verdicts (fun tool ->
        Pb_layers.run_tool ~step_limit ~argv ~input tool p.Groundtruth.source)
  in
  let id = p.Groundtruth.id in
  check t (bug_ok ctx.reference id engine && layered = engine) (fun () ->
      Printf.sprintf "%s in-process: [%s] vs [%s]" id
        (String.concat "; " engine) (String.concat "; " layered))

let hello_unit (t : tally) : unit =
  let _, out =
    Pb_layers.safe_sulong ~step_limit:Engine.default_step_limit
      ~argv:[ "program" ] ~input:"" Benchprogs.hello.Benchprogs.b_source
  in
  check t (out = hello_output) (fun () -> "in-process hello output")

let units (ctx : ctx) : (string * (tally -> unit)) list =
  let rng = Prng.create ctx.seed in
  ("hello", hello_unit)
  :: List.map
       (fun p -> (p.Groundtruth.id, fun t -> bug_unit ctx t p))
       (shuffle rng Corpus.all)

(** The process floor: a cold `sulong --version`. *)
let exec_probe ~(sulong : string) (t : tally) : unit =
  let status, _, _ =
    Pb_spans.span "proc.exec" (fun () -> run_process sulong [ "--version" ])
  in
  check t (exited_ok status) (fun () -> "sulong --version")
