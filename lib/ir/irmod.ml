(** IR modules: globals (with initial images), functions and external
    declarations (the host builtins that play the role of the paper's
    Java-implemented "syscall" functions). *)

type ginit =
  | Gzero
  | Gint of int64
  | Gfloat of float
  | Garray of ginit list
  | Gstruct_init of ginit list
  | Gstring of string  (** includes the terminating NUL *)
  | Gglobal_addr of string
  | Gfunc_addr of string

type global = { g_name : string; g_ty : Irtype.mty; g_init : ginit }

type extern_decl = {
  e_name : string;
  e_ret : Irtype.scalar option;
  e_params : Irtype.scalar list;
  e_variadic : bool;
}

type t = {
  mutable globals : global list;
  mutable funcs : Irfunc.t list;
  mutable externs : extern_decl list;
}

let create () = { globals = []; funcs = []; externs = [] }

let add_global m g = m.globals <- m.globals @ [ g ]
let add_func m f = m.funcs <- m.funcs @ [ f ]
let add_extern m e = m.externs <- m.externs @ [ e ]

let find_func m name = List.find_opt (fun f -> f.Irfunc.name = name) m.funcs
let find_global m name = List.find_opt (fun g -> g.g_name = name) m.globals
let find_extern m name = List.find_opt (fun e -> e.e_name = name) m.externs

let has_func m name = find_func m name <> None

(** The first function [m] references — as a direct callee, a function
    address operand or in a global initializer — that [m] does not
    define and [provided] (the host builtins) does not supply: what a
    linker reports as an undefined reference. *)
let first_undefined_function (m : t) ~(provided : string -> bool) :
    string option =
  let defined = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace defined f.Irfunc.name ()) m.funcs;
  let exception Undefined of string in
  let check name =
    if not (Hashtbl.mem defined name || provided name) then raise (Undefined name)
  in
  let value = function Instr.FuncAddr name -> check name | _ -> () in
  let rec init = function
    | Gfunc_addr name -> check name
    | Garray l | Gstruct_init l -> List.iter init l
    | Gzero | Gint _ | Gfloat _ | Gstring _ | Gglobal_addr _ -> ()
  in
  try
    List.iter (fun g -> init g.g_init) m.globals;
    List.iter
      (fun f ->
        List.iter
          (fun (b : Irfunc.block) ->
            List.iter
              (fun i ->
                (match i with
                | Instr.Call (_, _, Instr.Direct name, _) -> check name
                | _ -> ());
                List.iter value (Instr.uses_of i))
              b.instrs;
            List.iter value (Instr.term_uses b.term))
          f.Irfunc.blocks)
      m.funcs;
    None
  with Undefined name -> Some name

(** Total static instruction count (parser/startup cost model input). *)
let instr_count m =
  List.fold_left (fun acc f -> acc + Irfunc.instr_count f) 0 m.funcs

(** Deep copy (see [Irfunc.copy]). *)
let copy (m : t) : t =
  { globals = m.globals; funcs = List.map Irfunc.copy m.funcs; externs = m.externs }

(** Link [extra] into [m]: functions/globals in [m] win on name clashes,
    so a user program can override a libc function by defining it.  A
    zero-initialized global loses against an initialized one of the same
    name (C tentative definitions: [extern FILE *stdout] in a program
    must not shadow the libc's definition). *)
let link (m : t) (extra : t) : t =
  let have_f name = has_func m name in
  let have_g name = find_global m name <> None in
  let m_globals =
    List.map
      (fun g ->
        match (g.g_init, find_global extra g.g_name) with
        | Gzero, Some ext when ext.g_init <> Gzero -> ext
        | _ -> g)
      m.globals
  in
  let m = { m with globals = m_globals } in
  {
    globals = m.globals @ List.filter (fun g -> not (have_g g.g_name)) extra.globals;
    funcs = m.funcs @ List.filter (fun f -> not (have_f f.Irfunc.name)) extra.funcs;
    externs =
      m.externs
      @ List.filter (fun e -> find_extern m e.e_name = None) extra.externs;
  }
