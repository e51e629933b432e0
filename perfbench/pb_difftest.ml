(** Workload [difftest]: a block of generated all-features programs,
    starting at the workload seed, each through [Difftest.run_seed] and
    its 8 oracle configurations, in-process.  A closed loop with one
    client; every seed must come back [`Agree]. *)

open Pb_util

type ctx = { sulong : string; seed : int }

let setup ~(sulong : string) ~(seed : int) : ctx =
  Pb_triage.write_hello ();
  (* the libc front end every managed configuration links against, and
     one pass through every configuration's one-time initialisation *)
  ignore (Loader.libc_module_shared ());
  (match Oracle.check Benchprogs.hello.Benchprogs.b_source with
  | Oracle.Agree out when out = Pb_triage.hello_output -> ()
  | _ -> failwith "oracle disagrees on hello world");
  { sulong; seed }

(** The gate: the seed's verdict is [`Agree]. *)
let seed_ok = function `Agree -> true | `Reject _ | `Diverge _ -> false

let describe = function
  | `Agree -> "agree"
  | `Reject why -> "reject: " ^ why
  | `Diverge d -> "diverge: " ^ d.Difftest.dv_mismatch

let run_seed seed = Difftest.run_seed ~features:Cgen.all_features seed

(** Seeds until [seconds] have passed, with a cold-start probe every
    [Pb_triage.probe_every] seconds. *)
let measure (ctx : ctx) ~(seconds : float) : outcome =
  let t = tally () in
  let seed_ms = ref [] and hello_ms = ref [] in
  let start = now () in
  let deadline = start +. seconds in
  let next_probe = ref start in
  let seed = ref ctx.seed in
  while now () < deadline do
    if now () >= !next_probe then begin
      hello_ms := (Pb_triage.cold_hello ~sulong:ctx.sulong t *. 1000.) :: !hello_ms;
      next_probe := !next_probe +. Pb_triage.probe_every
    end;
    let v, dt = time (fun () -> run_seed !seed) in
    let s = !seed in
    check t (seed_ok v) (fun () -> Printf.sprintf "seed %d: %s" s (describe v));
    seed_ms := (dt *. 1000.) :: !seed_ms;
    incr seed
  done;
  let n = List.length !seed_ms in
  let p50 = Stats.median !seed_ms and p90 = Stats.quantile !seed_ms 0.9 in
  let per_s = rate_per_s !seed_ms in
  if not (p90_ready n) then
    Printf.eprintf "perfbench: only %d seeds, p90 has fewer than 10 beyond it\n" n;
  info "difftest.seed_ms_p50" p50 "ms" (Printf.sprintf "n=%d" n);
  info "difftest.seed_ms_p90" p90 "ms" (Printf.sprintf "n=%d" n);
  info "difftest.seeds_per_s" per_s "1/s"
    (Printf.sprintf "seeds %d..%d" ctx.seed (!seed - 1));
  let startup = Pb_triage.startup_ms "difftest.startup_ms" !hello_ms in
  {
    attempted = t.tried;
    failed = t.bad;
    metrics =
      [
        ("unit_ms_p50", p50); ("unit_ms_p90", p90);
        ("unit_ms_geo", geomean !seed_ms); ("units_per_s", per_s);
        ("startup_ms", startup); ("peak_rss_mb", self_rss_mb ());
      ];
  }

(* ---------------- traced run ---------------- *)

let traced_seeds = 16

let managed_key (r : Interp.run_result) : string =
  if r.Interp.timed_out then "timeout"
  else
    match r.Interp.error with
    | Some (cat, _) -> "detected:" ^ Merror.category_name cat
    | None -> Printf.sprintf "finished:%d" r.Interp.exit_code

(** [Oracle.run_config] for every configuration, spelled out through the
    layers: (outcome key, output) per configuration, in
    [Oracle.configs] order. *)
let layered_observations (src : string) : (string * string) list =
  let open Pb_layers in
  let step_limit = Oracle.step_limit and argv = [ "program" ] and input = "" in
  let user fold = Oracle.with_fe_fold fold (fun () -> compile_user src) in
  let managed u =
    let m = link u (Loader.libc_module_shared ()) in
    verify m;
    m
  in
  let users = [ (true, user true); (false, user false) ] in
  let linked = List.map (fun (f, u) -> (f, managed u)) users in
  let run ?tier ?run_span m =
    let r = interpret ?tier ?run_span ~step_limit ~argv ~input m in
    (managed_key r, r.Interp.output)
  in
  List.map
    (fun (c : Oracle.config) ->
      let m = List.assoc c.Oracle.cfg_fe_fold linked in
      match c.Oracle.cfg_target with
      | `Managed `Plain -> run m
      | `Managed `Tiered ->
        run ~tier:(controller ~threshold:0 ()) ~run_span:"jit.run" m
      | `Managed `FoldOnly ->
        let m = copy m in
        let rounds = ref 0 in
        Pb_spans.span "opt.fold" (fun () ->
            while !rounds < 8 && Fold.run m do incr rounds done);
        verify m;
        run m
      | `Managed `SafeJit ->
        let m = copy m in
        Pb_spans.count "opt.safe_jit_rounds"
          (Pb_spans.span "opt.safe_jit" (fun () -> Pipeline.safe_jit m));
        Pb_spans.count "opt.safe_jit_instrs_out" (Irmod.instr_count m);
        verify m;
        run m
      | `Native level ->
        let o, out =
          clang ~level ~step_limit ~argv ~input
            (List.assoc c.Oracle.cfg_fe_fold users)
        in
        (Oracle.outcome_key o, out))
    Oracle.configs

(** [Oracle.check]'s verdict over observations made one configuration
    at a time. *)
let agrees ~(expected : string) (obs : Oracle.observation list) : bool =
  match obs with
  | [] -> false
  | first :: rest ->
    List.for_all
      (fun o ->
        o.Oracle.ob_key = first.Oracle.ob_key
        && o.Oracle.ob_output = first.Oracle.ob_output)
      rest
    && first.Oracle.ob_key = "finished:0"
    && Oracle.has_prefix ~prefix:expected first.Oracle.ob_output

(** Traced unit: one seed, through [Oracle.run_config] per configuration
    and again through the layers; both must agree. *)
let seed_unit (seed : int) (t : tally) : unit =
  let span = Pb_spans.span in
  let src, expected =
    span "difftest.gen" (fun () ->
        let p = Cgen.generate ~features:Cgen.all_features ~seed () in
        (Cprog.render p, Cprog.expected_prefix p))
  in
  Events.reset ();
  let fes =
    [ (true, Oracle.frontend_of src true); (false, Oracle.frontend_of src false) ]
  in
  List.iter
    (fun (_, fe) ->
      ignore (span "oracle.fe_user" (fun () -> Lazy.force fe.Oracle.fe_user));
      ignore (span "oracle.fe_managed" (fun () -> Lazy.force fe.Oracle.fe_managed)))
    fes;
  let obs =
    List.map
      (fun (c : Oracle.config) ->
        span ("oracle.cfg." ^ c.Oracle.cfg_name) (fun () ->
            Oracle.run_config (List.assoc c.Oracle.cfg_fe_fold fes) c))
      Oracle.configs
  in
  let layered = layered_observations src in
  check t
    (agrees ~expected obs
    && layered = List.map (fun o -> (o.Oracle.ob_key, o.Oracle.ob_output)) obs)
    (fun () -> Printf.sprintf "seed %d in the traced run" seed)

let units (ctx : ctx) : (string * (tally -> unit)) list =
  List.init traced_seeds (fun i ->
      let s = ctx.seed + i in
      (string_of_int s, seed_unit s))

(** [Campaign.run ~jobs:1] on the traced block against the same seeds
    in-process: (campaign seeds/s, campaign overhead fraction). *)
let campaign (ctx : ctx) (t : tally) : float * float =
  let seeds = traced_seeds in
  let (), inproc =
    time (fun () ->
        for s = ctx.seed to ctx.seed + seeds - 1 do
          let v = run_seed s in
          check t (seed_ok v) (fun () ->
              Printf.sprintf "seed %d: %s" s (describe v))
        done)
  in
  let o, farm =
    time (fun () -> Campaign.run ~jobs:1 ~seed_start:ctx.seed ~seeds ())
  in
  let r = o.Campaign.co_report in
  check t (r.Difftest.rp_agree = seeds) (fun () -> "campaign verdicts");
  (float_of_int seeds /. farm, (farm -. inproc) /. inproc)
