(** Program loading: compile a user C source against the prelude, link
    the managed libc, and (optionally) run the result. *)

(** The managed libc as a fresh IR module (front-end output, cached and
    deep-copied per call). *)
val libc_module : unit -> Irmod.t

(** The cached libc module itself, without the per-call deep copy.  The
    result must be treated as frozen: a module linked from it aliases
    its functions, so run mutating passes only on an [Irmod.copy].  Used
    by the differential oracle, whose managed configurations copy before
    any middle-end rewrite. *)
val libc_module_shared : unit -> Irmod.t

(** Compile a user program (prelude visible, libc *not* linked) — what
    the native engines execute against the precompiled libc.  [file] is
    the source-file name recorded in diagnostics and bug reports. *)
val compile_user : ?file:string -> string -> Irmod.t

(** [compile_user] for a complete program, which every engine runs: a
    function the program declares and references but never defines
    raises [Diag.Error] ("undefined reference to 'f'") at its first
    reference, before anything executes.  Prototypes of libc functions
    are defined by the libc. *)
val compile_program : ?file:string -> string -> Irmod.t

(** Compile and link the complete managed program (user + libc); the
    module Safe Sulong interprets.  Verifies the result. *)
val load_program : ?file:string -> string -> Irmod.t

(** Compile, link and interpret in one call.  The optional arguments
    pass through to [Interp.create]. *)
val run_source :
  ?argv:string list ->
  ?input:string ->
  ?step_limit:int ->
  ?depth_limit:int ->
  ?mementos:bool ->
  ?detect_uninit:bool ->
  ?trace:bool ->
  ?seed:int ->
  string ->
  Interp.run_result
