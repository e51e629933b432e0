(** The front end's one constant evaluator: integer constant expressions
    (array sizes, case labels, enum values) and global initializers.

    Each C operator and conversion maps to the IR operation the lowering
    emits for it, and that operation is evaluated by [Irsem] — so a
    folded constant is exactly what the same expression computes at run
    time, in every engine and at every optimization level.  The mappings
    themselves ([scalar], [conversion], [ir_binop], [ir_cmp]) are the
    ones [Lower] uses. *)

module A = Ast

(** IR scalar of a C type (after decay); [None] for void and structs. *)
let scalar (ty : Ctype.t) : Irtype.scalar option =
  match Ctype.decay ty with
  | Ctype.Int (Ctype.IChar, _) -> Some Irtype.I8
  | Ctype.Int (Ctype.IShort, _) -> Some Irtype.I16
  | Ctype.Int (Ctype.IInt, _) -> Some Irtype.I32
  | Ctype.Int (Ctype.ILong, _) -> Some Irtype.I64
  | Ctype.Float Ctype.FFloat -> Some Irtype.F32
  | Ctype.Float Ctype.FDouble -> Some Irtype.F64
  | Ctype.Ptr _ -> Some Irtype.Ptr
  | Ctype.Void | Ctype.Struct _ | Ctype.Array _ | Ctype.Func _ -> None

(** Unsigned operations (division, shifts, comparisons, widening) apply
    to unsigned integers and pointers. *)
let is_unsigned (ty : Ctype.t) =
  match Ctype.decay ty with
  | Ctype.Int (_, Ctype.Unsigned) | Ctype.Ptr _ -> true
  | _ -> false

type conversion =
  | Same  (** the value's bits do not change *)
  | Cast of Instr.cast * Irtype.scalar * Irtype.scalar  (** (op, from, into) *)
  | Invalid

(** The IR cast implementing C's conversion of a value of [from_ty] to
    [to_ty]. *)
let conversion (from_ty : Ctype.t) (to_ty : Ctype.t) : conversion =
  match (scalar from_ty, scalar to_ty) with
  | Some fs, Some ts -> begin
    let cast op = Cast (op, fs, ts) in
    let fint = Irtype.is_int_scalar fs and tint = Irtype.is_int_scalar ts in
    let ffloat = Irtype.is_float_scalar fs and tfloat = Irtype.is_float_scalar ts in
    if fs = ts then Same
    else if ffloat && tfloat then cast (if fs = Irtype.F32 then Instr.Fpext else Instr.Fptrunc)
    else if ffloat && tint then
      cast (if is_unsigned to_ty then Instr.Fptoui else Instr.Fptosi)
    else if fint && tfloat then
      cast (if is_unsigned from_ty then Instr.Uitofp else Instr.Sitofp)
    else if fs = Irtype.Ptr && tint then cast Instr.Ptrtoint
    else if fint && ts = Irtype.Ptr then cast Instr.Inttoptr
    else if fint && tint then
      let fw = Irtype.scalar_size fs and tw = Irtype.scalar_size ts in
      if fw = tw then Same
      else if fw > tw then cast Instr.Trunc
      else cast (if is_unsigned from_ty then Instr.Zext else Instr.Sext)
    else Invalid
  end
  | _ -> Invalid

(** The IR binop of C's arithmetic operator [op] at result type [ty];
    [None] for comparisons and logical operators. *)
let ir_binop (op : A.binop) (ty : Ctype.t) (s : Irtype.scalar) :
    Instr.binop option =
  let fl = Irtype.is_float_scalar s and u = is_unsigned ty in
  match op with
  | A.Add -> Some (if fl then Instr.FAdd else Instr.Add)
  | A.Sub -> Some (if fl then Instr.FSub else Instr.Sub)
  | A.Mul -> Some (if fl then Instr.FMul else Instr.Mul)
  | A.Div -> Some (if fl then Instr.FDiv else if u then Instr.Udiv else Instr.Sdiv)
  | A.Mod -> Some (if u then Instr.Urem else Instr.Srem)
  | A.Shl -> Some Instr.Shl
  | A.Shr -> Some (if u then Instr.Lshr else Instr.Ashr)
  | A.Band -> Some Instr.And
  | A.Bor -> Some Instr.Or
  | A.Bxor -> Some Instr.Xor
  | A.Lt | A.Gt | A.Le | A.Ge | A.Eq | A.Ne | A.Logand | A.Logor -> None

type cmp = Icmp of Instr.icmp | Fcmp of Instr.fcmp

(** The IR comparison of C's relational operator [op] on operands
    converted to [common] (scalar [s]). *)
let ir_cmp (op : A.binop) (common : Ctype.t) (s : Irtype.scalar) : cmp =
  let u = is_unsigned common in
  match op with
  | _ when Irtype.is_float_scalar s -> begin
    match op with
    | A.Lt -> Fcmp Instr.Flt
    | A.Gt -> Fcmp Instr.Fgt
    | A.Le -> Fcmp Instr.Fle
    | A.Ge -> Fcmp Instr.Fge
    | A.Eq -> Fcmp Instr.Feq
    | _ -> Fcmp Instr.Fne
  end
  | A.Lt -> Icmp (if u then Instr.Iult else Instr.Islt)
  | A.Gt -> Icmp (if u then Instr.Iugt else Instr.Isgt)
  | A.Le -> Icmp (if u then Instr.Iule else Instr.Isle)
  | A.Ge -> Icmp (if u then Instr.Iuge else Instr.Isge)
  | A.Eq -> Icmp Instr.Ieq
  | _ -> Icmp Instr.Ine

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(** A constant, canonical at its C type's IR scalar. *)
type value = Int of int64 | Float of float

(** Raised at the first subexpression that is not a constant. *)
exception Not_constant of Token.pos

type env = {
  ty_of : A.expr -> Ctype.t;  (** the C type of a subexpression *)
  sizeof : Token.pos -> Ctype.t -> int;
}

(** [v] converted by the IR cast [op]. *)
let convert (op : Instr.cast) fs ts (v : value) : value =
  match (Irsem.cast op fs ts, v) with
  | Irsem.Int_to_int f, Int x -> Int (f fs ts x)
  | Irsem.Int_to_float f, Int x -> Float (f fs ts x)
  | Irsem.Float_to_int f, Float x -> Int (f ts x)
  | Irsem.Float_to_float f, Float x -> Float (f x)
  | _ -> invalid_arg "Cconst.convert: operand class"

let truth = function
  | Int x -> not (Int64.equal x 0L)
  | Float f -> Irsem.fcmp Instr.Fne f 0.0

let of_bool b = Int (if b then 1L else 0L)

let rec eval env (e : A.expr) : value =
  let pos = e.A.pos in
  let scalar_at ty =
    match scalar ty with Some s -> s | None -> raise (Not_constant pos)
  in
  let arith op ty x y =
    let s = scalar_at ty in
    match (ir_binop op ty s, x, y) with
    | Some iop, Float a, Float b -> Float (Irsem.float_binop iop s a b)
    | Some iop, Int a, Int b -> begin
      try Int (Irsem.int_binop iop s a b)
      with Irsem.Division_by_zero ->
        Diag.error pos "division by zero in constant"
    end
    | _ -> raise (Not_constant pos)
  in
  match e.A.desc with
  | A.IntLit (v, k, sg) ->
    Int (Irsem.normalize_int (scalar_at (Ctype.Int (k, sg))) v)
  | A.FloatLit (f, k) ->
    Float (Irsem.round_result (scalar_at (Ctype.Float k)) f)
  | A.CharLit c -> Int (Int64.of_int (Char.code c))
  | A.Unop (A.Neg, a) ->
    let ty = env.ty_of e in
    (* floats as [-0.0 - x], exactly as [Lower] emits it *)
    let zero = if Ctype.is_float ty then Float (-0.0) else Int 0L in
    arith A.Sub ty zero (eval_at env a ty)
  | A.Unop (A.Bitnot, a) ->
    let ty = env.ty_of e in
    arith A.Bxor ty (eval_at env a ty) (Int (-1L))
  | A.Unop (A.Lognot, a) -> of_bool (not (truth (eval env a)))
  | A.Binop (A.Logand, a, b) -> of_bool (truth (eval env a) && truth (eval env b))
  | A.Binop (A.Logor, a, b) -> of_bool (truth (eval env a) || truth (eval env b))
  | A.Binop (((A.Lt | A.Gt | A.Le | A.Ge | A.Eq | A.Ne) as op), a, b) -> begin
    let ta = Ctype.decay (env.ty_of a) and tb = Ctype.decay (env.ty_of b) in
    if not (Ctype.is_arith ta && Ctype.is_arith tb) then raise (Not_constant pos);
    let common = Ctype.usual_arith ta tb in
    let s = scalar_at common in
    let x = eval_at env a common in
    let y = eval_at env b common in
    match (ir_cmp op common s, x, y) with
    | Icmp c, Int x, Int y -> of_bool (Irsem.icmp c s x y)
    | Fcmp c, Float x, Float y -> of_bool (Irsem.fcmp c x y)
    | _ -> raise (Not_constant pos)
  end
  | A.Binop (op, a, b) ->
    let ty = env.ty_of e in
    let x = eval_at env a ty in
    arith op ty x (eval_at env b ty)
  | A.Cast (ty, a) -> eval_at env a ty
  | A.Cond (c, t, f) ->
    let ty = env.ty_of e in
    eval_at env (if truth (eval env c) then t else f) ty
  | A.SizeofTy ty -> Int (Int64.of_int (env.sizeof pos ty))
  | A.SizeofE a -> Int (Int64.of_int (env.sizeof pos (env.ty_of a)))
  | _ -> raise (Not_constant pos)

(** [e] evaluated and converted to [ty], as an assignment or cast to
    [ty] converts it. *)
and eval_at env (e : A.expr) (ty : Ctype.t) : value =
  let v = eval env e in
  match conversion (env.ty_of e) ty with
  | Same -> v
  | Cast (op, fs, ts) -> convert op fs ts v
  | Invalid -> raise (Not_constant e.A.pos)
