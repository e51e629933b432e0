(** The tools' pipelines, spelled out call by call through each layer's
    public functions with a span and counters around every call.  Each
    function here performs the same calls, in the same order, as the
    library entry point named in its comment, so its outcome must equal
    that entry point's; the traced run checks this. *)

open Pb_spans

let prelude_lines =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0
    Libc_src.prelude

(** [Lower.frontend], one span per stage. *)
let frontend ?(string_prefix = ".str") ~file ~start_line (src : string) :
    Irmod.t =
  count "cfront.bytes" (String.length src);
  let toks = span "cfront.lex" (fun () -> Lexer.tokenize ~start_line src) in
  count "cfront.tokens" (List.length toks);
  let prog = span "cfront.parse" (fun () -> Parser.parse toks) in
  let env = span "cfront.sema" (fun () -> Sema.check prog) in
  let m = span "lower" (fun () -> Lower.lower ~string_prefix ~file env prog) in
  count "lower.instrs" (Irmod.instr_count m);
  m

(** [Loader.compile_user]. *)
let compile_user (src : string) : Irmod.t =
  frontend ~file:"<input>" ~start_line:(1 - prelude_lines)
    (Libc_src.prelude ^ src)

(** The managed libc's front end, as a cold process pays it once. *)
let libc_cold () : Irmod.t =
  span "cfront.libc" (fun () ->
      frontend ~string_prefix:".libc.str" ~file:"<libc>" ~start_line:1
        Libc_src.source)

let link (user : Irmod.t) (libc : Irmod.t) : Irmod.t =
  span "ir.link" (fun () -> Irmod.link user libc)

let copy (m : Irmod.t) : Irmod.t = span "ir.copy" (fun () -> Irmod.copy m)

let verify (m : Irmod.t) : unit =
  count "ir.verify_instrs" (Irmod.instr_count m);
  span "ir.verify" (fun () -> Verify.verify m)

(** A tier controller whose compiles are spanned and counted. *)
let controller ?threshold () : Interp.tierctl =
  let c = Tier.controller ?threshold () in
  {
    c with
    Interp.tc_compile =
      (fun st pf ->
        count "jit.compiles" 1;
        span "jit.compile" (fun () -> c.Interp.tc_compile st pf));
  }

let record_managed (r : Interp.run_result) : unit =
  count "interp.steps" r.Interp.steps;
  count "managed.allocs" r.Interp.run_profile.Interp.p_allocs;
  count "managed.alloc_bytes" r.Interp.run_profile.Interp.p_alloc_bytes

(** Execute a linked module under Safe Sulong; [run_span] names the
    execution span ("interp.run", or "jit.run" for a tiered state). *)
let interpret ?tier ?(run_span = "interp.run") ~step_limit ~argv ~input
    (m : Irmod.t) : Interp.run_result =
  let st =
    span "interp.create" (fun () ->
        Interp.create ~step_limit ~mementos:true ~detect_uninit:false ~input
          ?tier m)
  in
  let r = span run_span (fun () -> Interp.run ~argv st) in
  record_managed r;
  r

let managed_outcome (r : Interp.run_result) : Outcome.t =
  if r.Interp.timed_out then Outcome.Timeout
  else
    match r.Interp.error with
    | Some (cat, msg) ->
      Outcome.Detected
        { tool = "Safe Sulong"; kind = Merror.category_name cat; message = msg }
    | None -> Outcome.Finished r.Interp.exit_code

(** [Engine.run Safe_sulong] from a cold process: the libc front end
    runs for this program, then user front end, link, verify, prepare,
    execute.  Returns the outcome and the output. *)
let safe_sulong ~step_limit ~argv ~input (src : string) : Outcome.t * string =
  let libc = libc_cold () in
  let user = compile_user src in
  let m = link user (copy libc) in
  verify m;
  let r = interpret ~step_limit ~argv ~input m in
  (managed_outcome r, r.Interp.output)

(** [Pipeline.compile_native]. *)
let compile_native ~(level : Pipeline.level) (m : Irmod.t) : unit =
  (match level with
  | Pipeline.O0 -> ()
  | Pipeline.O3 -> count "opt.o3_rounds" (span "opt.o3" (fun () -> Pipeline.o3 m)));
  ignore (span "opt.backend" (fun () -> Pipeline.backend m));
  verify m

(* The unexported [Engine.native_outcome]/[wrap_native]. *)
let native_outcome ~(promote_crash : string option) (r : Nexec.run_result) :
    Outcome.t =
  count "native.steps" r.Nexec.steps;
  let o =
    if r.Nexec.timed_out then Outcome.Timeout
    else
      match (r.Nexec.report, r.Nexec.crash) with
      | Some rep, _ ->
        Outcome.Detected
          { tool = rep.Hooks.tool; kind = rep.Hooks.kind;
            message = rep.Hooks.message }
      | None, Some (Nexec.Segv addr) ->
        Outcome.Crashed (Printf.sprintf "SIGSEGV at 0x%Lx" addr)
      | None, Some (Nexec.Trap t) -> Outcome.Crashed t
      | None, None -> Outcome.Finished r.Nexec.exit_code
  in
  match (o, promote_crash) with
  | Outcome.Crashed what, Some tool ->
    Outcome.Detected { tool; kind = "SEGV"; message = what }
  | o, _ -> o

let native_memory () =
  span "native.create" (fun () ->
      let mem = Mem.create () in
      (mem, Alloc.create mem))

(** [Engine.run_clang_module]: returns the outcome and the output. *)
let clang ~level ~step_limit ~argv ~input (user : Irmod.t) : Outcome.t * string
    =
  let m = copy user in
  compile_native ~level m;
  let st = span "native.create" (fun () -> Nexec.create ~step_limit ~input m) in
  let r = span "native.run" (fun () -> Nexec.run ~argv st) in
  (native_outcome ~promote_crash:None r, r.Nexec.output)

(** [Engine.run (Asan level)] with [Engine.default_asan]. *)
let asan ~level ~step_limit ~argv ~input (src : string) : Outcome.t =
  let m = compile_user src in
  compile_native ~level m;
  span "sanitizers.instrument" (fun () -> Asan.instrument m);
  verify m;
  let mem, alloc = native_memory () in
  let o = Engine.default_asan in
  let _, hooks =
    span "sanitizers.create" (fun () ->
        Asan.make ~quarantine_cap:o.Engine.quarantine_cap
          ~strtok_interceptor:o.Engine.strtok_interceptor
          ~fno_common:o.Engine.fno_common ~mem ~alloc ())
  in
  let st =
    span "native.create" (fun () ->
        Nexec.create ~hooks ~global_gap:32 ~step_limit ~input ~mem ~alloc m)
  in
  let r = span "sanitizers.run" (fun () -> Nexec.run ~argv st) in
  native_outcome ~promote_crash:(Some "AddressSanitizer") r

(** [Engine.run (Valgrind level)]. *)
let valgrind ~level ~step_limit ~argv ~input (src : string) : Outcome.t =
  let m = compile_user src in
  compile_native ~level m;
  let mem, alloc = native_memory () in
  let _, hooks =
    span "sanitizers.create" (fun () -> Memcheck.make ~mem ~alloc ())
  in
  let st =
    span "native.create" (fun () ->
        Nexec.create ~hooks ~step_limit ~input ~mem ~alloc m)
  in
  let r = span "sanitizers.run" (fun () -> Nexec.run ~argv st) in
  native_outcome ~promote_crash:(Some "Memcheck") r

(** [Engine.run tool] through the spelled-out pipelines. *)
let run_tool ~step_limit ~argv ~input (tool : Engine.tool) (src : string) :
    Outcome.t =
  match tool with
  | Engine.Safe_sulong -> fst (safe_sulong ~step_limit ~argv ~input src)
  | Engine.Asan level -> asan ~level ~step_limit ~argv ~input src
  | Engine.Valgrind level -> valgrind ~level ~step_limit ~argv ~input src
  | Engine.Clang level ->
    fst (clang ~level ~step_limit ~argv ~input (compile_user src))
