(** Program loading: compile a user C source with the prelude visible,
    compile the managed libc (cached — Safe Sulong parses libc at every
    start-up, which the start-up cost model charges for; *we* cache the
    front-end work and only account for it in the model), and link.

    The result is the module Safe Sulong interprets: user code first (its
    definitions win), libc filling in the rest. *)

let libc_cache : Irmod.t option ref = ref None

(** The cached libc front-end product, shared.  Callers must treat the
    result — and anything a module linked from it aliases — as frozen:
    copy before running a mutating pass. *)
let libc_module_shared () : Irmod.t =
  match !libc_cache with
  | Some m -> m
  | None ->
    let m, _env =
      Lower.frontend ~string_prefix:".libc.str" ~file:"<libc>"
        Libc_src.source
    in
    libc_cache := Some m;
    m

(** The libc as an IR module (front-end output, unoptimized). *)
let libc_module () : Irmod.t = Irmod.copy (libc_module_shared ())

(* The prelude is prepended to every user source before lexing; start
   the lexer's line counter below 1 so the *user's* first line is line 1
   in diagnostics and provenance reports.  The prelude holds only
   declarations, so no negative line ever reaches an executed Srcloc. *)
let prelude_lines =
  String.fold_left
    (fun acc c -> if c = '\n' then acc + 1 else acc)
    0 Libc_src.prelude

let frontend_user ~file src =
  Lower.frontend ~file ~start_line:(1 - prelude_lines) (Libc_src.prelude ^ src)

(** Compile [src] (user program) against the prelude, without linking. *)
let compile_user ?(file = "<input>") (src : string) : Irmod.t =
  fst (frontend_user ~file src)

(** [compile_user] for a whole program: a function it declares and uses
    but never defines is an undefined reference, reported as a linker
    would, for every engine alike — neither libc defines it.  What the
    prelude declares (lines <= 0) both libcs define. *)
let compile_program ?(file = "<input>") (src : string) : Irmod.t =
  let m, env = frontend_user ~file src in
  (match Sema.first_undefined_reference env ~provided:(fun pos -> pos.Token.line <= 0) with
  | Some (name, pos) -> Diag.error pos "undefined reference to '%s'" name
  | None -> ());
  m

(** Compile and link a complete program: user code + managed libc. *)
let load_program ?file (src : string) : Irmod.t =
  let user = compile_program ?file src in
  let linked = Trace.span "link" (fun () -> Irmod.link user (libc_module ())) in
  Trace.span "verify" (fun () -> Verify.verify linked);
  linked

(** Convenience for tests and examples: compile, link, interpret.  All
    interpreter knobs (step/depth limits, call tracing, PRNG seed) pass
    straight through to [Interp.create]. *)
let run_source ?(argv = [ "program" ]) ?(input = "") ?step_limit
    ?depth_limit ?(mementos = true) ?(detect_uninit = false) ?trace ?seed
    (src : string) : Interp.run_result =
  let m = load_program src in
  let st =
    Interp.create ?step_limit ?depth_limit ~mementos ~detect_uninit ?trace
      ?seed ~input m
  in
  Interp.run ~argv st
