(** Abstract syntax of the C subset.

    The parser produces this AST with every expression's [ty] field set to
    [Ctype.Void]; the type checker ([Sema]) fills the real type in place.
    Lowering consumes the annotated tree and inserts the implicit
    conversions (array decay, arithmetic conversions) by comparing the
    annotated types. *)

type unop =
  | Neg   (** -e *)
  | Lognot (** !e *)
  | Bitnot (** ~e *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr
  | Lt | Gt | Le | Ge | Eq | Ne
  | Band | Bor | Bxor
  | Logand | Logor

type expr = {
  mutable ty : Ctype.t;  (** filled by [Sema] *)
  pos : Token.pos;
  desc : desc;
}

and desc =
  | IntLit of int64 * Ctype.ikind * Ctype.signedness
  | FloatLit of float * Ctype.fkind
  | CharLit of char
  | StrLit of string           (** without the terminating NUL *)
  | Ident of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Assign of binop option * expr * expr  (** [Some op] for compound [op=] *)
  | Cond of expr * expr * expr
  | Cast of Ctype.t * expr
  | Call of expr * expr list
  | Index of expr * expr
  | Member of expr * string    (** e.f *)
  | Arrow of expr * string     (** e->f *)
  | Deref of expr
  | Addrof of expr
  | SizeofTy of Ctype.t
  | SizeofE of expr
  | PreIncr of expr | PreDecr of expr
  | PostIncr of expr | PostDecr of expr
  | Comma of expr * expr

type init = Iexpr of expr | Ilist of init list

type decl = {
  d_name : string;
  mutable d_ty : Ctype.t;  (** [Sema] completes unsized arrays from inits *)
  d_init : init option;
  d_pos : Token.pos;
}

type stmt =
  | Sexpr of expr
  | Sdecl of decl list
  | Sif of expr * stmt * stmt option
  | Swhile of expr * stmt
  | Sdo of stmt * expr
  | Sfor of stmt option * expr option * expr option * stmt
      (** init (Sdecl or Sexpr), condition, step, body *)
  | Sreturn of expr option * Token.pos
  | Sbreak of Token.pos
  | Scontinue of Token.pos
  | Sblock of stmt list
  | Sswitch of expr * stmt list * Token.pos
      (** body statements; [Scase]/[Sdefault] labels appear at the top
          level of the list *)
  | Scase of int64 * Token.pos
  | Sdefault of Token.pos
  | Sempty

type field = { f_name : string; f_ty : Ctype.t }

type func = {
  fn_name : string;
  fn_sig : Ctype.fsig;
  fn_params : (string * Ctype.t) list;
  fn_body : stmt list;
  fn_pos : Token.pos;
}

type global =
  | Gfunc of func
  | Gvar of decl
  | Gfundecl of string * Ctype.fsig * Token.pos
  | Gstruct of string * field list
  | Gtypedef of string * Ctype.t
  | Genum of (string * int64) list

type program = global list

(** Build an expression node (type filled later by Sema). *)
let mk pos desc = { ty = Ctype.Void; pos; desc }
