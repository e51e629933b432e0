(** The meaning of the IR's arithmetic, stated once (DESIGN.md §3a).

    Integer binops, [icmp], [fcmp], float binops (with F32 rounding) and
    every numeric cast are defined here over [int64]/[float], and nowhere
    else: the managed interpreter and the closure compiler resolve an
    operation here when they prepare or compile it, the native engine and
    the constant folder call it per instruction, and the C front end's
    constant evaluator ({!Cconst}) maps C operators onto it.  To change
    what an operation means, change it here.

    Integer values are canonical: truncated to the scalar's width and
    sign-extended to 64 bits (I1 is 0 or 1).  The integer resolvers take
    the width at call time, so every closure they return is a static
    constant and resolving allocates nothing — cheap enough to do per
    instruction in the engines that have no prepare step.

    Division and remainder by zero are the one outcome that is not a
    value: they raise [Division_by_zero], which each consumer maps to its
    own error (a managed error, SIGFPE, "leave unfolded", a front-end
    diagnostic). *)

exception Division_by_zero

(* ------------------------------------------------------------------ *)
(* Widths                                                              *)
(* ------------------------------------------------------------------ *)

(** Canonical value of [v] at width [s]: truncate, then sign-extend
    (I1 keeps only its low bit). *)
let normalize_int (s : Irtype.scalar) (v : int64) : int64 =
  match s with
  | Irtype.I1 -> Int64.logand v 1L
  | Irtype.I8 -> Int64.shift_right (Int64.shift_left v 56) 56
  | Irtype.I16 -> Int64.shift_right (Int64.shift_left v 48) 48
  | Irtype.I32 -> Int64.shift_right (Int64.shift_left v 32) 32
  | Irtype.I64 | Irtype.Ptr -> v
  | Irtype.F32 | Irtype.F64 -> invalid_arg "normalize_int on float type"

(** [v] reinterpreted as an unsigned value of width [s] (zero-extended). *)
let unsigned_of (s : Irtype.scalar) (v : int64) : int64 =
  match s with
  | Irtype.I1 -> Int64.logand v 1L
  | Irtype.I8 -> Int64.logand v 0xFFL
  | Irtype.I16 -> Int64.logand v 0xFFFFL
  | Irtype.I32 -> Int64.logand v 0xFFFFFFFFL
  | Irtype.I64 | Irtype.Ptr -> v
  | Irtype.F32 | Irtype.F64 -> invalid_arg "unsigned_of on float type"

(** Nearest single-precision value (round-to-nearest-even), by storing
    through binary32 bits: Fptrunc, F32 arithmetic and int-to-F32
    conversions all round here. *)
let round_to_f32 (f : float) : float = Int32.float_of_bits (Int32.bits_of_float f)

(** Round an arithmetic result to the precision of [s].  Computing
    [+ - * /] in double and rounding once to float equals direct
    single-precision evaluation (no double rounding: binary64 has more
    than 2p+2 significand bits for p = 24). *)
let round_result (s : Irtype.scalar) (f : float) : float =
  match s with Irtype.F32 -> round_to_f32 f | _ -> f

(** Float-to-integer conversion (Fptosi/Fptoui before normalization):
    truncation toward zero, NaN maps to 0, and values outside the i64
    range saturate.  C leaves these inputs undefined ([Int64.of_float]
    alone is unspecified on exactly them); what matters is that every
    configuration agrees. *)
let float_to_int (f : float) : int64 =
  if f <> f then 0L
  else if f >= Int64.to_float Int64.max_int then Int64.max_int
  else if f <= Int64.to_float Int64.min_int then Int64.min_int
  else Int64.of_float f

(* ------------------------------------------------------------------ *)
(* Binops and comparisons                                              *)
(* ------------------------------------------------------------------ *)

let is_float_op = function
  | Instr.FAdd | Instr.FSub | Instr.FMul | Instr.FDiv -> true
  | _ -> false

(** Can this op end in [Division_by_zero]? *)
let can_trap = function
  | Instr.Sdiv | Instr.Udiv | Instr.Srem | Instr.Urem -> true
  | _ -> false

let[@inline] nonzero (y : int64) =
  if Int64.equal y 0L then raise Division_by_zero

(* Shift counts are taken modulo 64 (C leaves counts >= width undefined;
   this is the one answer every engine gives). *)
let[@inline] count (y : int64) = Int64.to_int y land 63

(** Integer binop [op] at width [s] on canonical operands. *)
let int_binop (op : Instr.binop) : Irtype.scalar -> int64 -> int64 -> int64 =
  match op with
  | Instr.Add -> fun s x y -> normalize_int s (Int64.add x y)
  | Instr.Sub -> fun s x y -> normalize_int s (Int64.sub x y)
  | Instr.Mul -> fun s x y -> normalize_int s (Int64.mul x y)
  | Instr.Sdiv ->
    fun s x y ->
      nonzero y;
      normalize_int s (Int64.div x y)
  | Instr.Udiv ->
    fun s x y ->
      nonzero y;
      normalize_int s (Int64.unsigned_div (unsigned_of s x) (unsigned_of s y))
  | Instr.Srem ->
    fun s x y ->
      nonzero y;
      normalize_int s (Int64.rem x y)
  | Instr.Urem ->
    fun s x y ->
      nonzero y;
      normalize_int s (Int64.unsigned_rem (unsigned_of s x) (unsigned_of s y))
  | Instr.Shl -> fun s x y -> normalize_int s (Int64.shift_left x (count y))
  | Instr.Lshr ->
    fun s x y ->
      normalize_int s (Int64.shift_right_logical (unsigned_of s x) (count y))
  | Instr.Ashr -> fun s x y -> normalize_int s (Int64.shift_right x (count y))
  | Instr.And -> fun s x y -> normalize_int s (Int64.logand x y)
  | Instr.Or -> fun s x y -> normalize_int s (Int64.logor x y)
  | Instr.Xor -> fun s x y -> normalize_int s (Int64.logxor x y)
  | Instr.FAdd | Instr.FSub | Instr.FMul | Instr.FDiv ->
    invalid_arg "Irsem.int_binop: float op"

(** Float binop [op] at width [s] (F32 results rounded to single). *)
let float_binop (op : Instr.binop) (s : Irtype.scalar) : float -> float -> float
    =
  let f32 = s = Irtype.F32 in
  match op with
  | Instr.FAdd when f32 -> fun a b -> round_to_f32 (a +. b)
  | Instr.FSub when f32 -> fun a b -> round_to_f32 (a -. b)
  | Instr.FMul when f32 -> fun a b -> round_to_f32 (a *. b)
  | Instr.FDiv when f32 -> fun a b -> round_to_f32 (a /. b)
  | Instr.FAdd -> fun a b -> a +. b
  | Instr.FSub -> fun a b -> a -. b
  | Instr.FMul -> fun a b -> a *. b
  | Instr.FDiv -> fun a b -> a /. b
  | _ -> invalid_arg "Irsem.float_binop: integer op"

let ucmp s x y = Int64.unsigned_compare (unsigned_of s x) (unsigned_of s y)

(** Integer comparison [op] at width [s] on canonical operands. *)
let icmp (op : Instr.icmp) : Irtype.scalar -> int64 -> int64 -> bool =
  match op with
  | Instr.Ieq -> fun _ x y -> Int64.equal x y
  | Instr.Ine -> fun _ x y -> not (Int64.equal x y)
  | Instr.Islt -> fun _ x y -> Int64.compare x y < 0
  | Instr.Isle -> fun _ x y -> Int64.compare x y <= 0
  | Instr.Isgt -> fun _ x y -> Int64.compare x y > 0
  | Instr.Isge -> fun _ x y -> Int64.compare x y >= 0
  | Instr.Iult -> fun s x y -> ucmp s x y < 0
  | Instr.Iule -> fun s x y -> ucmp s x y <= 0
  | Instr.Iugt -> fun s x y -> ucmp s x y > 0
  | Instr.Iuge -> fun s x y -> ucmp s x y >= 0

(** Ordered IEEE comparison [op] (false on NaN, except [Fne]). *)
let fcmp (op : Instr.fcmp) : float -> float -> bool =
  match op with
  | Instr.Feq -> fun (x : float) y -> x = y
  | Instr.Fne -> fun (x : float) y -> x <> y
  | Instr.Flt -> fun (x : float) y -> x < y
  | Instr.Fle -> fun (x : float) y -> x <= y
  | Instr.Fgt -> fun (x : float) y -> x > y
  | Instr.Fge -> fun (x : float) y -> x >= y

(* ------------------------------------------------------------------ *)
(* Casts                                                               *)
(* ------------------------------------------------------------------ *)

(** A numeric cast, resolved by operand and result class.  The scalar
    arguments are the cast's [from] and [into] widths. *)
type cast_fn =
  | Int_to_int of (Irtype.scalar -> Irtype.scalar -> int64 -> int64)
  | Float_to_int of (Irtype.scalar -> float -> int64)
  | Int_to_float of (Irtype.scalar -> Irtype.scalar -> int64 -> float)
  | Float_to_float of (float -> float)

let to_width = Int_to_int (fun _ into x -> normalize_int into x)
let zext = Int_to_int (fun from into x -> normalize_int into (unsigned_of from x))
let fptoi = Float_to_int (fun into f -> normalize_int into (float_to_int f))
let sitofp = Int_to_float (fun _ into x -> round_result into (Int64.to_float x))

let uitofp =
  Int_to_float
    (fun from into x ->
      let u = unsigned_of from x in
      round_result into
        (if u >= 0L then Int64.to_float u
         else Int64.to_float u +. 18446744073709551616.0))

let fptrunc = Float_to_float round_to_f32
let fsame = Float_to_float (fun f -> f)

let float_bits =
  Float_to_int
    (fun into f ->
      normalize_int into
        (if into = Irtype.I32 then Int64.of_int32 (Int32.bits_of_float f)
         else Int64.bits_of_float f))

let bits_float =
  Int_to_float
    (fun _ into x ->
      if into = Irtype.F32 then Int32.float_of_bits (Int64.to_int32 x)
      else Int64.float_of_bits x)

(** The cast [op] from [from] to [into].  Ptrtoint and Inttoptr are the
    address-as-integer view (the managed engine gives pointers its own
    meaning first); a Bitcast between two integer or two float widths is
    the identity. *)
let cast (op : Instr.cast) (from : Irtype.scalar) (into : Irtype.scalar) :
    cast_fn =
  match op with
  | Instr.Trunc | Instr.Sext | Instr.Ptrtoint | Instr.Inttoptr -> to_width
  | Instr.Zext -> zext
  | Instr.Fptosi | Instr.Fptoui -> fptoi
  | Instr.Sitofp -> sitofp
  | Instr.Uitofp -> uitofp
  | Instr.Fptrunc -> fptrunc
  | Instr.Fpext -> fsame
  | Instr.Bitcast -> begin
    match (Irtype.is_float_scalar from, Irtype.is_float_scalar into) with
    | true, false -> float_bits
    | false, true -> bits_float
    | true, true -> fsame
    | false, false -> to_width
  end

(* ------------------------------------------------------------------ *)
(* Native-int forms for small scalars                                  *)
(* ------------------------------------------------------------------ *)

(* Tier 2 keeps I1..I32 registers unboxed as OCaml native ints.  The law
   that makes these forms equal to the int64 ones: for canonical
   operands x, y of a small width s (|x|, |y| < 2^31),

     Int64.of_int (small_binop op s (to_int x) (to_int y))
       = int_binop op s x y
     small_icmp op s (to_int x) (to_int y) = icmp op s x y

   because every intermediate either fits 63 bits or only its low
   [ibits s] bits survive normalization, and those bits wrap identically
   mod 2^63 and mod 2^64 (a product of two 32-bit values needs only its
   low 32 bits; a shift by >= 32 leaves nothing of them).  The casts
   obey the same law against [cast].  Checked exhaustively for I1/I8 and
   by QCheck for I16/I32. *)

(** Widths whose canonical values fit an OCaml native int with room to
    spare. *)
let small = function
  | Irtype.I1 | Irtype.I8 | Irtype.I16 | Irtype.I32 -> true
  | Irtype.I64 | Irtype.Ptr | Irtype.F32 | Irtype.F64 -> false

let ibits = function
  | Irtype.I1 -> 1
  | Irtype.I8 -> 8
  | Irtype.I16 -> 16
  | Irtype.I32 -> 32
  | _ -> invalid_arg "Irsem.ibits: not a small scalar"

let imask s = (1 lsl ibits s) - 1

(** [normalize_int] on native ints. *)
let inorm (s : Irtype.scalar) : int -> int =
  if s = Irtype.I1 then fun v -> v land 1
  else
    let sh = 63 - ibits s in
    fun v -> (v lsl sh) asr sh

(** [int_binop op s] on native ints, for small [s]. *)
let small_binop (op : Instr.binop) (s : Irtype.scalar) : int -> int -> int =
  let norm = inorm s in
  let mask = imask s in
  let nonzero y = if y = 0 then raise Division_by_zero in
  match op with
  | Instr.Add -> fun x y -> norm (x + y)
  | Instr.Sub -> fun x y -> norm (x - y)
  | Instr.Mul -> fun x y -> norm (x * y)
  | Instr.Sdiv ->
    fun x y ->
      nonzero y;
      norm (x / y)
  | Instr.Udiv ->
    fun x y ->
      nonzero y;
      norm ((x land mask) / (y land mask))
  | Instr.Srem ->
    fun x y ->
      nonzero y;
      norm (x mod y)
  | Instr.Urem ->
    fun x y ->
      nonzero y;
      norm ((x land mask) mod (y land mask))
  | Instr.Shl -> fun x y -> norm (x lsl (y land 63))
  | Instr.Lshr -> fun x y -> norm ((x land mask) lsr (y land 63))
  | Instr.Ashr -> fun x y -> norm (x asr (y land 63))
  | Instr.And -> fun x y -> norm (x land y)
  | Instr.Or -> fun x y -> norm (x lor y)
  | Instr.Xor -> fun x y -> norm (x lxor y)
  | Instr.FAdd | Instr.FSub | Instr.FMul | Instr.FDiv ->
    invalid_arg "Irsem.small_binop: float op"

(** [icmp op s] on native ints, for small [s]. *)
let small_icmp (op : Instr.icmp) (s : Irtype.scalar) : int -> int -> bool =
  let mask = imask s in
  match op with
  | Instr.Ieq -> fun x y -> x = y
  | Instr.Ine -> fun x y -> x <> y
  | Instr.Islt -> fun x y -> x < y
  | Instr.Isle -> fun x y -> x <= y
  | Instr.Isgt -> fun x y -> x > y
  | Instr.Isge -> fun x y -> x >= y
  | Instr.Iult -> fun x y -> x land mask < y land mask
  | Instr.Iule -> fun x y -> x land mask <= y land mask
  | Instr.Iugt -> fun x y -> x land mask > y land mask
  | Instr.Iuge -> fun x y -> x land mask >= y land mask

(** Trunc/Sext/Zext into a small width, on native ints. *)
let small_cast (op : Instr.cast) (from : Irtype.scalar) (into : Irtype.scalar)
    : int -> int =
  let n = inorm into in
  match op with
  | Instr.Zext when small from ->
    let m = imask from in
    fun x -> n (x land m)
  | _ -> n

(** Sitofp/Uitofp from a small width, on native ints. *)
let small_to_float (op : Instr.cast) (from : Irtype.scalar)
    (into : Irtype.scalar) : int -> float =
  let m = match op with Instr.Uitofp -> imask from | _ -> -1 in
  if into = Irtype.F32 then fun x -> round_to_f32 (float_of_int (x land m))
  else fun x -> float_of_int (x land m)
