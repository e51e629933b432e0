(** Workload [peak]: paper §4.2–4.3 warm-up and peak.  [binarytrees] and
    the 8 programs of [Benchprogs.perf_suite] are loaded during set-up,
    then run again and again in one [Interp] state each, [reset] between
    iterations.  Every program has two states: tier 1 alone, and the
    production [Tier.controller ()] (not forced hot).  Rounds visit the
    programs in an order shuffled by the seed; a closed loop with one
    client. *)

open Pb_util

let benches = Benchprogs.binarytrees :: Benchprogs.perf_suite
let names = List.map (fun b -> b.Benchprogs.b_name) benches

type prog = {
  name : string;
  reference : string;  (** native Clang -O0 output *)
  tier1 : Interp.state;
  tiered : Interp.state;
  mutable steps : int;  (** tier-1 step count, once known *)
}

type ctx = { sulong : string; seed : int; progs : prog list }

(** The native Clang -O0 output the managed tiers must reproduce. *)
let native_reference (src : string) : string =
  let r = Engine.run (Engine.Clang Pipeline.O0) src in
  match r.Engine.outcome with
  | Outcome.Finished 0 -> r.Engine.output
  | o -> failwith ("native reference run: " ^ Outcome.to_string o)

let setup ~(sulong : string) ~(seed : int) : ctx =
  Pb_triage.write_hello ();
  let progs =
    List.map
      (fun b ->
        let m = Loader.load_program b.Benchprogs.b_source in
        {
          name = b.Benchprogs.b_name;
          reference = native_reference b.Benchprogs.b_source;
          tier1 = Interp.create m;
          tiered = Interp.create ~tier:(Tier.controller ()) (Irmod.copy m);
          steps = -1;
        })
      benches
  in
  { sulong; seed; progs }

(** The gate for one iteration: the native output, a clean exit, and the
    same step count on both tiers. *)
let iteration_ok (p : prog) (r : Interp.run_result) : bool =
  let fresh = p.steps < 0 in
  if fresh then p.steps <- r.Interp.steps;
  r.Interp.output = p.reference
  && r.Interp.error = None && r.Interp.exit_code = 0
  && r.Interp.steps = p.steps

(** One timed iteration.  Creating a state resets the shared object
    registry, so every run starts from its own [reset]. *)
let iterate (t : tally) (p : prog) (st : Interp.state) : float =
  let r, dt =
    time (fun () ->
        Interp.reset st;
        Interp.run st)
  in
  check t (iteration_ok p r) (fun () ->
      Printf.sprintf "%s: output/steps differ from the reference" p.name);
  dt *. 1000.

let measure (ctx : ctx) ~(seconds : float) : outcome =
  let rng = Prng.create ctx.seed in
  let t = tally () in
  let warm1 = Hashtbl.create 9 and warm2 = Hashtbl.create 9 in
  let first = Hashtbl.create 9 in
  let add tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  let hello_ms = ref [] and in_order = ref [] in
  Gc.full_major ();
  let start = now () in
  let deadline = start +. seconds in
  let next_probe = ref start in
  while now () < deadline do
    List.iter
      (fun p ->
        if now () >= !next_probe then begin
          hello_ms :=
            (Pb_triage.cold_hello ~sulong:ctx.sulong t *. 1000.) :: !hello_ms;
          next_probe := !next_probe +. Pb_triage.probe_every
        end;
        let ms1 = iterate t p p.tier1 in
        let ms2 = iterate t p p.tiered in
        if Hashtbl.mem first p.name then begin
          add warm1 p.name ms1;
          add warm2 p.name ms2;
          in_order := ms2 :: !in_order
        end
        else Hashtbl.replace first p.name ms2)
      (shuffle rng ctx.progs)
  done;
  let medians tbl = Hashtbl.fold (fun _ xs acc -> Stats.median xs :: acc) tbl [] in
  let pooled = Hashtbl.fold (fun _ xs acc -> xs @ acc) warm2 [] in
  let n = List.length pooled in
  if Hashtbl.length warm2 < List.length ctx.progs then
    failwith "peak: too short a run for a warm iteration of every program";
  let interp = geomean (medians warm1) and tiered = geomean (medians warm2) in
  let first_geo = geomean (Hashtbl.fold (fun _ v acc -> v :: acc) first []) in
  let per_s = rate_per_s !in_order in
  if not (p90_ready n) then
    Printf.eprintf
      "perfbench: only %d iterations, p90 has fewer than 10 beyond it\n" n;
  info "peak.interp_ms" interp "ms"
    (Printf.sprintf "geomean of %d medians, n=%d" (Hashtbl.length warm1)
       (Hashtbl.fold (fun _ xs acc -> acc + List.length xs) warm1 0));
  info "peak.tiered_ms" tiered "ms"
    (Printf.sprintf "geomean of %d medians, n=%d" (Hashtbl.length warm2) n);
  info "peak.tiered_first_ms" first_geo "ms"
    (Printf.sprintf "geomean of %d first iterations" (Hashtbl.length first));
  let startup = Pb_triage.startup_ms "peak.startup_ms" !hello_ms in
  {
    attempted = t.tried;
    failed = t.bad;
    metrics =
      [
        ("unit_ms_p50", Stats.median pooled);
        ("unit_ms_p90", Stats.quantile pooled 0.9);
        ("unit_ms_geo", tiered); ("units_per_s", per_s);
        ("startup_ms", startup); ("peak_rss_mb", self_rss_mb ());
      ];
  }

(* ---------------- traced run ---------------- *)

let traced_iterations = 5

(** Traced unit: one program loaded through the layers, its native
    reference, then [traced_iterations] runs in each state.  Span names
    carry the state: "interp.run" (tier 1), "jit.first" and "jit.run"
    (production controller). *)
let prog_unit (b : Benchprogs.bench) (t : tally) : unit =
  let open Pb_layers in
  let span = Pb_spans.span in
  let user = compile_user b.Benchprogs.b_source in
  let m = link user (copy (Loader.libc_module_shared ())) in
  verify m;
  let _, reference =
    clang ~level:Pipeline.O0 ~step_limit:Engine.default_step_limit
      ~argv:[ "program" ] ~input:"" user
  in
  let tier1 = span "interp.create" (fun () -> Interp.create m) in
  let tiered =
    span "interp.create" (fun () -> Interp.create ~tier:(controller ()) (copy m))
  in
  let p = { name = b.Benchprogs.b_name; reference; tier1; tiered; steps = -1 } in
  for i = 1 to traced_iterations do
    let go name st =
      let r =
        span name (fun () ->
            Interp.reset st;
            Interp.run st)
      in
      record_managed r;
      check t (iteration_ok p r) (fun () -> p.name ^ " in the traced run")
    in
    go "interp.run" tier1;
    go (if i = 1 then "jit.first" else "jit.run") tiered
  done

let units (ctx : ctx) : (string * (tally -> unit)) list =
  let rng = Prng.create ctx.seed in
  List.map (fun b -> (b.Benchprogs.b_name, prog_unit b)) (shuffle rng benches)
