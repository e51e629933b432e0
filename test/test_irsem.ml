(** The IR's arithmetic is defined once, in [Irsem]; these tests state
    every engine against it.

    - The small native-int forms tier 2 uses equal the int64 forms
      (exhaustive for I1/I8, QCheck for I16/I32).
    - A per-opcode table runs one-instruction functions for every binop,
      icmp, fcmp and cast on edge operands through the interpreter,
      forced-hot tier 2 (boxed and unboxed register paths), the native
      engine and the constant folder, and checks each against [Irsem],
      with division by zero mapped to each engine's own error.
    - The C front end's constant evaluator agrees with run-time
      evaluation: a global initializer and the same expression in a
      local print the same value under every engine. *)

let int_scalars = Irtype.[ I1; I8; I16; I32; I64 ]
let float_scalars = Irtype.[ F32; F64 ]

let binops =
  Instr.[ Add; Sub; Mul; Sdiv; Udiv; Srem; Urem; Shl; Lshr; Ashr; And; Or; Xor ]

let fbinops = Instr.[ FAdd; FSub; FMul; FDiv ]
let icmps = Instr.[ Ieq; Ine; Islt; Isle; Isgt; Isge; Iult; Iule; Iugt; Iuge ]
let fcmps = Instr.[ Feq; Fne; Flt; Fle; Fgt; Fge ]

let bits s = Irtype.scalar_size s * 8

(* ---------------- small native-int forms = int64 forms ---------------- *)

let div0 f = try Some (f ()) with Irsem.Division_by_zero -> None

(* Does every small form agree with its int64 form on (x, y)? Returns
   the first disagreeing operation, if any. *)
let small_disagreement s (x : int64) (y : int64) : string option =
  let xi = Int64.to_int x and yi = Int64.to_int y in
  let bad = ref None in
  List.iter
    (fun op ->
      let big = div0 (fun () -> Irsem.int_binop op s x y) in
      let small =
        div0 (fun () -> Int64.of_int (Irsem.small_binop op s xi yi))
      in
      if big <> small && !bad = None then bad := Some "binop")
    binops;
  List.iter
    (fun op ->
      if Irsem.icmp op s x y <> Irsem.small_icmp op s xi yi && !bad = None then
        bad := Some "icmp")
    icmps;
  (* casts out of s, checked on x *)
  List.iter
    (fun into ->
      List.iter
        (fun op ->
          let legal =
            match op with
            | Instr.Trunc -> bits into < bits s
            | _ -> bits into > bits s
          in
          if legal then
            match Irsem.cast op s into with
            | Irsem.Int_to_int f ->
              if
                f s into x
                <> Int64.of_int (Irsem.small_cast op s into xi)
                && !bad = None
              then bad := Some "cast"
            | _ -> ())
        Instr.[ Trunc; Zext; Sext ])
    Irtype.[ I1; I8; I16; I32 ];
  List.iter
    (fun (op, into) ->
      match Irsem.cast op s into with
      | Irsem.Int_to_float f ->
        if
          Int64.bits_of_float (f s into x)
          <> Int64.bits_of_float (Irsem.small_to_float op s into xi)
          && !bad = None
        then bad := Some "to-float"
      | _ -> ())
    Instr.
      [
        (Sitofp, Irtype.F32); (Sitofp, Irtype.F64); (Uitofp, Irtype.F32);
        (Uitofp, Irtype.F64);
      ];
  !bad

let canonical s = List.init (1 lsl bits s) (fun i -> Irsem.normalize_int s (Int64.of_int i))

let test_small_exhaustive () =
  List.iter
    (fun s ->
      let vs = if s = Irtype.I1 then [ 0L; 1L ] else canonical s in
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              match small_disagreement s x y with
              | None -> ()
              | Some what ->
                Alcotest.failf "%s %s disagrees on (%Ld, %Ld)" what
                  (Irtype.scalar_to_string s) x y)
            vs)
        vs)
    Irtype.[ I1; I8 ]

let small_law_qcheck s =
  let edges =
    [ 0L; 1L; -1L; 2L; 31L; 32L; 63L; 64L; Int64.of_int (bits s);
      Int64.shift_left 1L (bits s - 1); Int64.pred (Int64.shift_left 1L (bits s - 1)) ]
  in
  let gen = QCheck.(oneof [ int64; oneofl edges ]) in
  QCheck.Test.make ~count:3000
    ~name:(Printf.sprintf "small forms = int64 forms (%s)" (Irtype.scalar_to_string s))
    (QCheck.pair gen gen)
    (fun (a, b) ->
      small_disagreement s (Irsem.normalize_int s a) (Irsem.normalize_int s b)
      = None)

(* ---------------- one-instruction functions, every engine ---------------- *)

type op =
  | Bin of Instr.binop * Irtype.scalar
  | Icmp of Instr.icmp * Irtype.scalar
  | Fcmp of Instr.fcmp * Irtype.scalar
  | Cast of Instr.cast * Irtype.scalar * Irtype.scalar

type v = I of int64 | F of float
type outcome = Val of v | Div0 | Unfolded

let show_v = function
  | I x -> Int64.to_string x
  | F f -> Printf.sprintf "%h" f

let show = function
  | Val v -> show_v v
  | Div0 -> "division by zero"
  | Unfolded -> "unfolded"

let same a b =
  match (a, b) with
  | Val (F x), Val (F y) -> (Float.is_nan x && Float.is_nan y) || Int64.bits_of_float x = Int64.bits_of_float y
  | a, b -> a = b

let operand_scalars = function
  | Bin (_, s) | Icmp (_, s) | Fcmp (_, s) -> [ s; s ]
  | Cast (_, f, _) -> [ f ]

let result_scalar = function
  | Bin (_, s) -> s
  | Icmp _ | Fcmp _ -> Irtype.I1
  | Cast (_, _, t) -> t

let op_name op =
  let sc = Irtype.scalar_to_string in
  match op with
  | Bin (o, s) -> Irprint.binop_name o ^ " " ^ sc s
  | Icmp (o, s) -> "icmp " ^ Irprint.icmp_name o ^ " " ^ sc s
  | Fcmp (o, s) -> "fcmp " ^ Irprint.fcmp_name o ^ " " ^ sc s
  | Cast (o, f, t) -> Irprint.cast_name o ^ " " ^ sc f ^ " to " ^ sc t

let expected op (args : v list) : outcome =
  let b c = Val (I (if c then 1L else 0L)) in
  match (op, args) with
  | Bin (o, s), [ F x; F y ] -> Val (F (Irsem.float_binop o s x y))
  | Bin (o, s), [ I x; I y ] -> begin
    match Irsem.int_binop o s x y with
    | r -> Val (I r)
    | exception Irsem.Division_by_zero -> Div0
  end
  | Icmp (o, s), [ I x; I y ] -> b (Irsem.icmp o s x y)
  | Fcmp (o, _), [ F x; F y ] -> b (Irsem.fcmp o x y)
  | Cast (o, fs, ts), [ v ] -> begin
    match (Irsem.cast o fs ts, v) with
    | Irsem.Int_to_int f, I x -> Val (I (f fs ts x))
    | Irsem.Float_to_int f, F x -> Val (I (f ts x))
    | Irsem.Int_to_float f, I x -> Val (F (f fs ts x))
    | Irsem.Float_to_float f, F x -> Val (F (f x))
    | _ -> invalid_arg "expected: operand class"
  end
  | _ -> invalid_arg "expected: arity"

let imm s = function
  | I x -> Instr.ImmInt (x, s)
  | F f -> Instr.ImmFloat (f, s)

let instr_of op r (vs : Instr.value list) =
  match (op, vs) with
  | Bin (o, s), [ a; b ] -> Instr.Binop (r, o, s, a, b)
  | Icmp (o, s), [ a; b ] -> Instr.Icmp (r, o, s, a, b)
  | Fcmp (o, s), [ a; b ] -> Instr.Fcmp (r, o, s, a, b)
  | Cast (o, f, t), [ a ] -> Instr.Cast (r, o, f, t, a)
  | _ -> invalid_arg "instr_of: arity"

(* [f(params) = op params]; with [unboxed], each parameter first passes
   through an identity op (x | 0, x + -0.0) so tier 2 classifies the
   operands as unboxed int/float registers. *)
let make_func ~name ~unboxed ?operands op : Irfunc.t =
  let ss = operand_scalars op in
  let params =
    match operands with Some _ -> [] | None -> List.mapi (fun i s -> (i, s)) ss
  in
  let b =
    Builder.create_function ~name ~params ~ret:(Some (result_scalar op))
      ~variadic:false ~src_pos:(0, 0) ()
  in
  let args =
    match operands with
    | Some vs -> List.map2 imm ss vs
    | None ->
      List.map
        (fun (r, s) ->
          if not unboxed then Instr.Reg r
          else if Irtype.is_float_scalar s then
            Builder.binop b Instr.FAdd s (Instr.Reg r) (Instr.ImmFloat (-0.0, s))
          else Builder.binop b Instr.Or s (Instr.Reg r) (Instr.ImmInt (0L, s)))
        params
  in
  let r = Builder.fresh_reg b in
  Builder.emit b (instr_of op r args);
  Builder.terminate b (Instr.Ret (Some (result_scalar op, Instr.Reg r)));
  Builder.finish b

let module_of funcs =
  let m = Irmod.create () in
  List.iter (Irmod.add_func m) funcs;
  m

let mval = function I x -> Mval.Vint x | F f -> Mval.Vfloat f

let of_mval = function
  | Some (Mval.Vint x) -> Val (I x)
  | Some (Mval.Vfloat f) -> Val (F f)
  | _ -> Alcotest.fail "unexpected managed result"

(* Managed engine, either tier: a division by zero must be the managed
   error.  [compiled] asserts that the body really ran in tier 2. *)
let run_managed ~compiled ~name m op args =
  let tier =
    if compiled then Some (Tier.controller ~threshold:0 ()) else None
  in
  let st = Interp.create ?tier m in
  let pf = Hashtbl.find st.Interp.funcs name in
  let r =
    match
      Interp.call_function st pf
        (Array.of_list (List.map mval args))
        (Array.of_list (operand_scalars op))
    with
    | v -> of_mval v
    | exception Merror.Error (Merror.Division_by_zero, _) -> Div0
  in
  (if compiled then
     match pf.Interp.pf_tier with
     | Interp.Tier_compiled _ | Interp.Tier_deopt -> ()
     | Interp.Tier_interp -> Alcotest.failf "%s did not tier up" name);
  r

let shared_mem = lazy (Mem.create ())

let run_native m op args =
  let st = Nexec.create ~mem:(Lazy.force shared_mem) m in
  let pf = Hashtbl.find st.Nexec.funcs "f" in
  let nv = function I x -> Nvalue.NI (x, true) | F f -> Nvalue.NF (f, true) in
  match Nexec.call_function st pf (List.map nv args) with
  | Some (Nvalue.NI (x, _)) -> Val (I x)
  | Some (Nvalue.NF (f, _)) -> Val (F f)
  | None -> Alcotest.fail "native: no result"
  | exception Nvalue.Native_trap "SIGFPE" -> Div0
  | exception e -> ignore op; raise e

let run_fold op args =
  let f = make_func ~name:"h" ~unboxed:false ~operands:args op in
  ignore (Fold.run_func f);
  match (List.hd f.Irfunc.blocks).Irfunc.term with
  | Instr.Ret (Some (_, Instr.ImmInt (x, _))) -> Val (I x)
  | Instr.Ret (Some (_, Instr.ImmFloat (x, _))) -> Val (F x)
  | _ -> Unfolded

let check_op op (cases : v list list) =
  let m =
    module_of
      [ make_func ~name:"f" ~unboxed:false op; make_func ~name:"g" ~unboxed:true op ]
  in
  List.iter
    (fun args ->
      let want = expected op args in
      let where engine =
        Printf.sprintf "%s (%s) under %s" (op_name op)
          (String.concat ", " (List.map show_v args))
          engine
      in
      let agree engine got =
        if not (same want got) then
          Alcotest.failf "%s: want %s, got %s" (where engine) (show want) (show got)
      in
      agree "interp" (run_managed ~compiled:false ~name:"f" m op args);
      agree "tier2 boxed" (run_managed ~compiled:true ~name:"f" m op args);
      agree "tier2 unboxed" (run_managed ~compiled:true ~name:"g" m op args);
      agree "native" (run_native m op args);
      (* The folder computes every value it folds with [Irsem]; it leaves
         division by zero for run time, and never folds fcmp/bitcast. *)
      match (run_fold op args, want, op) with
      | Unfolded, Div0, _ | Unfolded, _, (Fcmp _ | Cast (Instr.Bitcast, _, _)) -> ()
      | got, _, _ -> agree "fold" got)
    cases

let int_edges s =
  let w = bits s in
  if s = Irtype.I1 then [ I 0L; I 1L ]
  else
    let min = Irsem.normalize_int s (Int64.shift_left 1L (w - 1)) in
    let max = Int64.pred min |> Irsem.normalize_int s in
    List.map
      (fun x -> I (Irsem.normalize_int s x))
      [ 0L; 1L; -1L; min; max; Int64.of_int w; Int64.of_int (w + 1); 63L; 64L ]

let float_edges s =
  let r = if s = Irtype.F32 then Irsem.round_to_f32 else Fun.id in
  List.map
    (fun f -> F (r f))
    [ 0.0; -0.0; 1.0; -1.0; 0.1; 2.5; -2.5; 16777217.0; 1e10; -1e10; 1e19;
      -1e19; 9.3e18; 1e300; Float.max_float; Float.nan; Float.infinity;
      Float.neg_infinity ]

let pairs xs = List.concat_map (fun x -> List.map (fun y -> [ x; y ]) xs) xs

let test_binops () =
  List.iter
    (fun s ->
      let cases = pairs (int_edges s) in
      List.iter (fun o -> check_op (Bin (o, s)) cases) binops;
      List.iter (fun o -> check_op (Icmp (o, s)) cases) icmps)
    int_scalars

let test_float_ops () =
  List.iter
    (fun s ->
      let cases = pairs (float_edges s) in
      List.iter (fun o -> check_op (Bin (o, s)) cases) fbinops;
      List.iter (fun o -> check_op (Fcmp (o, s)) cases) fcmps)
    float_scalars

let test_casts () =
  let ints = Irtype.[ I1; I8; I16; I32; I64 ] in
  let one vs = List.map (fun v -> [ v ]) vs in
  List.iter
    (fun fs ->
      List.iter
        (fun ts ->
          let c op = check_op (Cast (op, fs, ts)) (one (int_edges fs)) in
          if bits ts < bits fs then c Instr.Trunc;
          if bits ts > bits fs then (
            c Instr.Zext;
            c Instr.Sext))
        ints;
      if fs <> Irtype.I1 then
        List.iter
          (fun ts ->
            check_op (Cast (Instr.Sitofp, fs, ts)) (one (int_edges fs));
            check_op (Cast (Instr.Uitofp, fs, ts)) (one (int_edges fs)))
          float_scalars)
    ints;
  List.iter
    (fun fs ->
      List.iter
        (fun ts ->
          if ts <> Irtype.I1 then begin
            check_op (Cast (Instr.Fptosi, fs, ts)) (one (float_edges fs));
            check_op (Cast (Instr.Fptoui, fs, ts)) (one (float_edges fs))
          end)
        ints)
    float_scalars;
  check_op (Cast (Instr.Fptrunc, Irtype.F64, Irtype.F32)) (one (float_edges Irtype.F64));
  check_op (Cast (Instr.Fpext, Irtype.F32, Irtype.F64)) (one (float_edges Irtype.F32));
  check_op (Cast (Instr.Bitcast, Irtype.F32, Irtype.I32)) (one (float_edges Irtype.F32));
  check_op (Cast (Instr.Bitcast, Irtype.F64, Irtype.I64)) (one (float_edges Irtype.F64));
  check_op (Cast (Instr.Bitcast, Irtype.I32, Irtype.F32)) (one (int_edges Irtype.I32));
  check_op (Cast (Instr.Bitcast, Irtype.I64, Irtype.F64)) (one (int_edges Irtype.I64))

(* uitofp of values >= 2^63 and F32 rounding of int->float, explicitly *)
let test_conversion_pins () =
  let u = Irsem.cast Instr.Uitofp Irtype.I64 Irtype.F64 in
  (match u with
  | Irsem.Int_to_float f ->
    Alcotest.(check (float 0.0)) "uitofp 2^64-1" 18446744073709551616.0
      (f Irtype.I64 Irtype.F64 (-1L));
    Alcotest.(check (float 0.0)) "uitofp 2^63" 9223372036854775808.0
      (f Irtype.I64 Irtype.F64 Int64.min_int)
  | _ -> Alcotest.fail "uitofp class");
  match Irsem.cast Instr.Sitofp Irtype.I32 Irtype.F32 with
  | Irsem.Int_to_float f ->
    Alcotest.(check (float 0.0)) "sitofp rounds to f32" 16777216.0
      (f Irtype.I32 Irtype.F32 16777217L)
  | _ -> Alcotest.fail "sitofp class"

(* ---------------- C constants: global initializer = local ---------------- *)

(* Each initializer, as a global and as a local of the same type, must
   print the same value under every engine (the folder and the engines
   share one semantics; before, global initializers had their own). *)
let initializers =
  [
    ("double", "%.17g", "(float)16777217");
    ("double", "%.17g", "(int)2.5");
    ("double", "%.17g", "(float)0.1");
    ("double", "%.17g", "-(unsigned)1");
    ("double", "%.17g", "(char)200");
    ("double", "%.17g", "1.0f / 3.0f");
    ("double", "%.17g", "7 / 2 * 2.0");
    ("float", "%.17g", "0.1");
    ("long", "%ld", "~5");
    ("long", "%ld", "!0");
    ("long", "%ld", "3 < 5");
    ("long", "%ld", "1 ? 2 : 3");
    ("long", "%ld", "(1 < 2) + 3");
    ("long", "%ld", "sizeof(int)");
    ("long", "%ld", "2.5");
    ("long", "%ld", "(long)-2.9");
    ("long", "%ld", "(unsigned long)-1 / 3");
    ("long", "%ld", "-7 % 3");
    ("long", "%ld", "(unsigned char)300 + (short)70000");
    ("long", "%ld", "1u << 31 >> 31");
    ("int", "%d", "0.5 || 0");
  ]

let test_global_initializers_match_locals () =
  let print ty fmt v =
    Printf.sprintf "printf(\"%s\\n\", (%s)%s);" fmt
      (if ty = "float" then "double" else ty)
      v
  in
  List.iter
    (fun (ty, fmt, e) ->
      let global =
        Printf.sprintf "%s g = %s;\nint main(void) { %s return 0; }\n" ty e
          (print ty fmt "g")
      in
      let local =
        Printf.sprintf "int main(void) { %s l = %s; %s return 0; }\n" ty e
          (print ty fmt "l")
      in
      let outputs =
        List.concat_map
          (fun tool ->
            List.map
              (fun src ->
                let r = Engine.run tool src in
                ( Engine.tool_name tool,
                  Outcome.to_string r.Engine.outcome ^ " " ^ r.Engine.output ))
              [ global; local ])
          [ Engine.Safe_sulong; Engine.Clang Pipeline.O0; Engine.Clang Pipeline.O3 ]
      in
      let _, reference = List.hd outputs in
      List.iter
        (fun (tool, out) ->
          Alcotest.(check string) (Printf.sprintf "%s g = %s; under %s" ty e tool)
            reference out)
        outputs)
    initializers

let test_union_rejected () =
  let src =
    "int main(void) {\n  union U { int i; char c[4]; } u;\n  u.i = 1;\n  return u.c[0];\n}\n"
  in
  match Loader.load_program src with
  | _ -> Alcotest.fail "union accepted"
  | exception Diag.Error (pos, msg) ->
    Alcotest.(check (pair int int)) "position" (2, 3) (pos.Token.line, pos.Token.col);
    Alcotest.(check string) "message" "unsupported: union types" msg

let () =
  Alcotest.run "irsem"
    [
      ( "small-int law",
        [ Alcotest.test_case "exhaustive I1/I8" `Quick test_small_exhaustive ]
        @ List.map QCheck_alcotest.to_alcotest
            [ small_law_qcheck Irtype.I16; small_law_qcheck Irtype.I32 ] );
      ( "engines = Irsem",
        [
          Alcotest.test_case "int binops and icmp" `Quick test_binops;
          Alcotest.test_case "float binops and fcmp" `Quick test_float_ops;
          Alcotest.test_case "casts" `Quick test_casts;
          Alcotest.test_case "conversion pins" `Quick test_conversion_pins;
        ] );
      ( "C constants",
        [
          Alcotest.test_case "global initializers match locals" `Quick
            test_global_initializers_match_locals;
          Alcotest.test_case "union rejected with position" `Quick
            test_union_rejected;
        ] );
    ]
