(** The benchmark's entry point.

      perfbench --workload triage|difftest|peak --seed N --seconds S
                --trace 0|1 --sulong PATH
      perfbench --self-test --sulong PATH

    With [--trace 0] it measures the end-to-end metrics for [S] seconds;
    with [--trace 1] it makes the separate traced run that gives the
    per-layer metrics.  The last line of standard output is one JSON
    object: correct, attempted, failed, and the metric values by name
    (perfbench/run.py adds the units from BENCHMARK.json). *)

open Pb_util

(** A workload after its set-up: the measuring loop of the untraced run,
    and the units and extra probes of the traced run. *)
type workload = {
  measure : seconds:float -> outcome;
  units : (string * (tally -> unit)) list;
  probes : tally -> (string * float) list;
}

let prepare ~sulong ~seed : string -> workload = function
  | "triage" ->
    let c = Pb_triage.setup ~sulong ~seed in
    {
      measure = Pb_triage.measure c;
      units = Pb_triage.units c;
      probes =
        (fun t ->
          for _ = 1 to 10 do Pb_triage.exec_probe ~sulong t done;
          []);
    }
  | "difftest" ->
    let c = Pb_difftest.setup ~sulong ~seed in
    {
      measure = Pb_difftest.measure c;
      units = Pb_difftest.units c;
      probes =
        (fun t ->
          let per_s, overhead = Pb_difftest.campaign c t in
          [ ("campaign.seeds_per_s", per_s);
            ("campaign.overhead_frac", overhead) ]);
    }
  | "peak" ->
    let c = Pb_peak.setup ~sulong ~seed in
    { measure = Pb_peak.measure c; units = Pb_peak.units c; probes = (fun _ -> []) }
  | w -> failwith ("unknown workload " ^ w)

(* ---------------- the traced run ---------------- *)

let oracle_metric (c : Oracle.config) =
  "oracle.cfg." ^ String.map (function '/' -> '-' | ch -> ch) c.Oracle.cfg_name
  ^ "_ms"

(** The traced run: a warm-up pass, two plain passes to check that every
    counter repeats exactly, then a pass with spans recorded.  Per-layer times are milliseconds per unit of the
    recorded pass; counts are its totals. *)
let traced ~sulong ~seed (workload : string) : outcome =
  let { units; probes; _ } = prepare ~sulong ~seed workload in
  let t = tally () in
  let run_unit (name, f) =
    (* a fresh flight recorder per unit, as [Difftest.run_seed] does: a
       managed error copies the whole ring into its report, so a ring
       still filling up would make allocation depend on earlier units *)
    Events.reset ();
    try f t
    with e -> check t false (fun () -> name ^ " raised " ^ Printexc.to_string e)
  in
  let pass ~record =
    Pb_spans.recording := record;
    let wall =
      List.fold_left
        (fun acc ((name, _) as u) ->
          Gc.full_major ();
          let (), dt =
            time (fun () -> Pb_spans.in_unit name (fun () -> run_unit u))
          in
          acc +. dt)
        0. units
    in
    Pb_spans.recording := false;
    (wall, Pb_spans.take_counters ())
  in
  Pb_spans.reset ();
  (* a warm-up pass: first-use work (the engine's libc cache, metric and
     table registrations) would otherwise show as a difference between
     the two compared passes *)
  ignore (pass ~record:false);
  let _, c1 = pass ~record:false in
  let plain_wall, c2 = pass ~record:false in
  let traced_wall, c3 = pass ~record:true in
  let covered = Pb_spans.covered () in
  let is_gc n = String.length n > 3 && String.sub n 0 3 = "gc." in
  let nondet =
    List.sort_uniq compare
      (Pb_spans.nondeterministic c1 c2
      @ Pb_spans.nondeterministic ~ignore:is_gc c2 c3)
  in
  List.iter (Printf.eprintf "perfbench: nondeterministic counter %s\n") nondet;
  (* probes after the passes, recorded as spans of their own *)
  Pb_spans.recording := true;
  Pb_spans.current_unit := "probe";
  let extra = probes t in
  Pb_spans.recording := false;
  let n = float_of_int (List.length units) in
  let per_unit s = s *. 1000. /. n in
  let ms name = per_unit (Pb_spans.sum_named name) in
  let cnt name = Pb_spans.total c3 name in
  (* a program's median iteration in the recorded pass; tier 1's first
     iteration is left out as warm-up *)
  let prog_median name prog drop_first =
    match Pb_spans.durations ~unit_:prog name with
    | [] -> 0.
    | _ :: rest when drop_first && rest <> [] -> Stats.median rest *. 1000.
    | xs -> Stats.median xs *. 1000.
  in
  let proc_exec =
    match Pb_spans.durations ~unit_:"probe" "proc.exec" with
    | [] -> 0.
    | xs -> Stats.median xs *. 1000.
  in
  let doc = Pb_spans.chrome_trace () in
  (match Trace.validate doc with
  | Ok () -> ()
  | Error e -> check t false (fun () -> "chrome trace: " ^ e));
  ensure_out_dir ();
  let trace_file =
    Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" workload seed)
  in
  write_file trace_file doc;
  let self = Pb_spans.self_times () in
  let metrics =
    [
      ("cfront.lex_ms", ms "cfront.lex"); ("cfront.parse_ms", ms "cfront.parse");
      ("cfront.sema_ms", ms "cfront.sema"); ("cfront.libc_ms", ms "cfront.libc");
      ("cfront.bytes", cnt "cfront.bytes"); ("cfront.tokens", cnt "cfront.tokens");
      ("lower.ms", ms "lower"); ("lower.instrs", cnt "lower.instrs");
      ("ir.link_ms", ms "ir.link"); ("ir.verify_ms", ms "ir.verify");
      ("ir.verify_instrs", cnt "ir.verify_instrs");
      ("opt.o3_ms", ms "opt.o3"); ("opt.o3_rounds", cnt "opt.o3_rounds");
      ("opt.safe_jit_ms", ms "opt.safe_jit");
      ("opt.safe_jit_rounds", cnt "opt.safe_jit_rounds");
      ("opt.safe_jit_instrs_out", cnt "opt.safe_jit_instrs_out");
      ("opt.fold_ms", ms "opt.fold"); ("opt.backend_ms", ms "opt.backend");
      ("interp.create_ms", ms "interp.create"); ("interp.run_ms", ms "interp.run");
      ("interp.steps", cnt "interp.steps");
      ("managed.allocs", cnt "managed.allocs");
      ("managed.alloc_bytes", cnt "managed.alloc_bytes");
      ("jit.compiles", cnt "jit.compiles"); ("jit.compile_ms", ms "jit.compile");
      ("native.create_ms", ms "native.create"); ("native.run_ms", ms "native.run");
      ("native.steps", cnt "native.steps");
      ("sanitizers.instrument_ms", ms "sanitizers.instrument");
      ("sanitizers.create_ms", ms "sanitizers.create");
      ("sanitizers.run_ms", ms "sanitizers.run");
      ("engine.safe_sulong_ms", ms "engine.safe_sulong");
      ("engine.asan_o0_ms", ms "engine.asan_o0");
      ("engine.asan_o3_ms", ms "engine.asan_o3");
      ("engine.valgrind_o0_ms", ms "engine.valgrind_o0");
      ("engine.valgrind_o3_ms", ms "engine.valgrind_o3");
      ("difftest.gen_ms", ms "difftest.gen");
      ("oracle.fe_user_ms", ms "oracle.fe_user");
      ("oracle.fe_managed_ms", ms "oracle.fe_managed");
    ]
    @ List.map
        (fun (c : Oracle.config) ->
          (oracle_metric c, ms ("oracle.cfg." ^ c.Oracle.cfg_name)))
        Oracle.configs
    @ List.map
        (fun k -> (k, Option.value ~default:0. (List.assoc_opt k extra)))
        [ "campaign.seeds_per_s"; "campaign.overhead_frac" ]
    @ List.concat_map
        (fun prog ->
          [
            ("interp.run_ms." ^ prog, prog_median "interp.run" prog true);
            ("jit.run_ms." ^ prog, prog_median "jit.run" prog false);
            ("jit.first_ms." ^ prog, prog_median "jit.first" prog false);
          ])
        Pb_peak.names
    @ [
        ("proc.exec_ms", proc_exec);
        ("gc.minor_mwords", Pb_spans.total c2 "gc.minor_words" /. 1e6);
        ("gc.major_mwords", Pb_spans.total c2 "gc.major_words" /. 1e6);
        ("gc.major_collections", Pb_spans.total c2 "gc.major_collections");
      ]
    @ List.map (fun (l, s) -> ("self." ^ l ^ "_ms", per_unit s)) self
    @ [
        ("trace.overhead_ms", per_unit (traced_wall -. plain_wall));
        ("trace.overhead_frac", (traced_wall -. plain_wall) /. plain_wall);
        ("trace.uncovered_ms", per_unit (traced_wall -. covered));
        ("trace.spans", float_of_int (List.length !Pb_spans.spans));
        ("counters.nondeterministic", float_of_int (List.length nondet));
      ]
  in
  Printf.printf "  traced %d units; Chrome trace in %s\n" (List.length units)
    trace_file;
  { attempted = t.tried; failed = t.bad; metrics }

(* ---------------- the measured run ---------------- *)

(** Set-up time: the median over cold processes that each perform the
    workload's set-up and exit, so one-time work (libc front end, module
    loading, caches) counts every time.  At least 3 probes, more while
    they take under a second in all. *)
let setup_s ~sulong ~seed (workload : string) : float =
  let probe () =
    let status, _, dt =
      run_process Sys.executable_name
        [ "--setup-only"; "--workload"; workload; "--seed"; string_of_int seed;
          "--sulong"; sulong ]
    in
    if not (exited_ok status) then failwith "set-up probe failed";
    dt
  in
  let rec go acc spent =
    if List.length acc >= 25 || (List.length acc >= 3 && spent >= 1.) then acc
    else
      let dt = probe () in
      go (dt :: acc) (spent +. dt)
  in
  let probes = go [] 0. in
  info "setup_s" (Stats.median probes) "s"
    (Printf.sprintf "median of %d" (List.length probes));
  Stats.median probes

let measure ~sulong ~seed ~seconds (workload : string) : outcome =
  let setup_s = setup_s ~sulong ~seed workload in
  let o = (prepare ~sulong ~seed workload).measure ~seconds in
  let failed_frac = float_of_int o.failed /. float_of_int (max 1 o.attempted) in
  info "failed_frac" failed_frac "frac" (Printf.sprintf "n=%d" o.attempted);
  let pass_frac = 1. -. failed_frac in
  { o with metrics = ("setup_s", setup_s) :: ("pass_frac", pass_frac) :: o.metrics }

(* ---------------- self-test of the gates ---------------- *)

(** Each correctness gate must pass on its reference and fail once the
    reference is corrupted. *)
let self_test ~sulong : bool =
  let results = ref [] in
  let gate name ~clean ~corrupted =
    Printf.printf "  %-16s reference %s, corrupted reference %s\n%!" name
      (if clean then "passes" else "FAILS")
      (if corrupted then "PASSES" else "fails");
    results := (clean && not corrupted) :: !results
  in
  (* triage: one cold bug, the pass totals, the start-up probe *)
  let ctx = Pb_triage.setup ~sulong ~seed:0 in
  let reference = ctx.Pb_triage.reference in
  let id, want = List.hd reference in
  let row, _ = Pb_triage.cold_bug ctx id in
  let flip v = if Pb_triage.found v then "missed" else "FOUND (corrupted)" in
  let corrupt =
    (id, List.mapi (fun i v -> if i = 1 then flip v else v) want)
    :: List.tl reference
  in
  gate "triage bug" ~clean:(Pb_triage.bug_ok reference id row)
    ~corrupted:(Pb_triage.bug_ok corrupt id row);
  gate "triage totals" ~clean:(Pb_triage.totals_ok reference)
    ~corrupted:(Pb_triage.totals_ok corrupt);
  let hello = run_process sulong [ "run"; Pb_triage.hello_file ] in
  gate "startup hello" ~clean:(Pb_triage.hello_ok hello)
    ~corrupted:(Pb_triage.hello_ok ~expected:"Hello, Moon!\n" hello);
  (* difftest: the reference evaluator's expected output prefix *)
  let p = Cgen.generate ~features:Cgen.all_features ~seed:0 () in
  let src = Cprog.render p and expected = Cprog.expected_prefix p in
  let agrees expected =
    match Oracle.check ~expected src with Oracle.Agree _ -> true | _ -> false
  in
  gate "difftest seed" ~clean:(agrees expected)
    ~corrupted:(agrees (expected ^ "corrupted\n"));
  (* peak: the native output and the step count *)
  let b = Benchprogs.fasta in
  let m = Loader.load_program b.Benchprogs.b_source in
  let prog =
    {
      Pb_peak.name = b.Benchprogs.b_name;
      reference = Pb_peak.native_reference b.Benchprogs.b_source;
      tier1 = Interp.create m;
      tiered = Interp.create ~tier:(Tier.controller ()) (Irmod.copy m);
      steps = -1;
    }
  in
  let run st =
    Interp.reset st;
    Interp.run st
  in
  let r1 = run prog.Pb_peak.tier1 and r2 = run prog.Pb_peak.tiered in
  let ok p = Pb_peak.iteration_ok p r1 && Pb_peak.iteration_ok p r2 in
  let bad_output = { prog with Pb_peak.reference = prog.Pb_peak.reference ^ "x" } in
  gate "peak output" ~clean:(ok prog) ~corrupted:(ok bad_output);
  gate "peak steps" ~clean:(ok prog)
    ~corrupted:(ok { prog with Pb_peak.steps = prog.Pb_peak.steps + 1 });
  List.for_all Fun.id !results

(* ---------------- command line ---------------- *)

let print_result (o : outcome) : unit =
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (o.failed = 0 && o.attempted > 0)
    o.attempted o.failed
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%.17g" k v) o.metrics))

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and sulong = ref "" in
  let setup_only = ref false and selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME triage, difftest or peak");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 the traced run (per-layer metrics)");
      ("--sulong", Arg.Set_string sulong, "PATH the sulong executable");
      ("--setup-only", Arg.Set setup_only, " perform the set-up and exit");
      ("--self-test", Arg.Set selftest, " check that every gate can fail");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 --sulong PATH";
  if !sulong = "" then (prerr_endline "perfbench: --sulong is required"; exit 2);
  if !selftest then exit (if self_test ~sulong:!sulong then 0 else 1);
  if !setup_only then begin
    ignore (prepare ~sulong:!sulong ~seed:!seed !workload);
    exit 0
  end;
  let o =
    if !trace = 1 then traced ~sulong:!sulong ~seed:!seed !workload
    else measure ~sulong:!sulong ~seed:!seed ~seconds:!seconds !workload
  in
  print_result o
