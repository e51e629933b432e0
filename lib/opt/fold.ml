(** Constant folding and algebraic simplification.  Every folded value
    is computed by [Irsem], the semantics the engines execute, so
    optimized and unoptimized runs agree on correct programs. *)

let imm s v = Instr.ImmInt (Irsem.normalize_int s v, s)

let as_const (v : Instr.value) : int64 option =
  match v with Instr.ImmInt (x, _) -> Some x | _ -> None

let as_fconst (v : Instr.value) : float option =
  match v with
  | Instr.ImmFloat (f, _) -> Some f
  | _ -> None

let fold_binop op s a b : Instr.value option =
  match (op, as_const a, as_const b, as_fconst a, as_fconst b) with
  | _, _, _, Some x, Some y when Irsem.is_float_op op ->
    Some (Instr.ImmFloat (Irsem.float_binop op s x y, s))
  | _, Some x, Some y, _, _ when not (Irsem.is_float_op op) -> begin
    (* a division by zero stays in the program, to fail at run time *)
    match Irsem.int_binop op s x y with
    | v -> Some (Instr.ImmInt (v, s))
    | exception Irsem.Division_by_zero -> None
  end
  (* Algebraic identities with one constant side. *)
  | Instr.Add, Some 0L, None, _, _ -> Some b
  | Instr.Add, None, Some 0L, _, _ -> Some a
  | Instr.Sub, None, Some 0L, _, _ -> Some a
  | Instr.Mul, Some 1L, None, _, _ -> Some b
  | Instr.Mul, None, Some 1L, _, _ -> Some a
  | Instr.Mul, Some 0L, None, _, _ -> Some (imm s 0L)
  | Instr.Mul, None, Some 0L, _, _ -> Some (imm s 0L)
  | _ -> None

let fold_icmp op s a b : Instr.value option =
  match (as_const a, as_const b) with
  | Some x, Some y ->
    Some (imm Irtype.I1 (if Irsem.icmp op s x y then 1L else 0L))
  | _ -> None

(* Bitcasts are left to the engines. *)
let fold_cast op from into v : Instr.value option =
  match ((v : Instr.value), Irsem.cast op from into) with
  | _ when op = Instr.Bitcast -> None
  | Instr.ImmInt (x, _), Irsem.Int_to_int f -> Some (Instr.ImmInt (f from into x, into))
  | Instr.ImmInt (x, _), Irsem.Int_to_float f ->
    Some (Instr.ImmFloat (f from into x, into))
  | Instr.ImmFloat (x, _), Irsem.Float_to_int f -> Some (Instr.ImmInt (f into x, into))
  | Instr.ImmFloat (x, _), Irsem.Float_to_float f -> Some (Instr.ImmFloat (f x, into))
  | Instr.Null, _ when op = Instr.Ptrtoint -> Some (imm into 0L)
  | _ -> None

(** One folding sweep over [f]; returns true if anything changed. *)
let run_func (f : Irfunc.t) : bool =
  let changed = ref false in
  let subst : (Instr.reg, Instr.value) Hashtbl.t = Hashtbl.create 32 in
  let resolve v =
    match v with
    | Instr.Reg r -> begin
      match Hashtbl.find_opt subst r with Some x -> x | None -> v
    end
    | v -> v
  in
  let fold_instr (i : Instr.instr) : Instr.instr option =
    match i with
    | Instr.Binop (r, op, s, a, b) -> begin
      let a = resolve a and b = resolve b in
      match fold_binop op s a b with
      | Some value ->
        Hashtbl.replace subst r value;
        changed := true;
        None
      | None -> Some (Instr.Binop (r, op, s, a, b))
    end
    | Instr.Icmp (r, op, s, a, b) -> begin
      let a = resolve a and b = resolve b in
      match fold_icmp op s a b with
      | Some value ->
        Hashtbl.replace subst r value;
        changed := true;
        None
      | None -> Some (Instr.Icmp (r, op, s, a, b))
    end
    | Instr.Fcmp (r, op, s, a, b) -> Some (Instr.Fcmp (r, op, s, resolve a, resolve b))
    | Instr.Cast (r, op, from, into, v) -> begin
      let v = resolve v in
      match fold_cast op from into v with
      | Some value ->
        Hashtbl.replace subst r value;
        changed := true;
        None
      | None -> Some (Instr.Cast (r, op, from, into, v))
    end
    | Instr.Select (r, s, c, a, b) -> begin
      let c = resolve c and a = resolve a and b = resolve b in
      match as_const c with
      | Some x ->
        Hashtbl.replace subst r (if x <> 0L then a else b);
        changed := true;
        None
      | None -> Some (Instr.Select (r, s, c, a, b))
    end
    | Instr.Load (r, s, p) -> Some (Instr.Load (r, s, resolve p))
    | Instr.Store (s, v, p) -> Some (Instr.Store (s, resolve v, resolve p))
    | Instr.Gep (r, base, idx) ->
      Some
        (Instr.Gep
           ( r,
             resolve base,
             List.map
               (function
                 | Instr.Gindex (v, stride) -> Instr.Gindex (resolve v, stride)
                 | g -> g)
               idx ))
    | Instr.Call (r, ret, callee, args) ->
      let callee =
        match callee with
        | Instr.Indirect v -> Instr.Indirect (resolve v)
        | c -> c
      in
      Some (Instr.Call (r, ret, callee, List.map (fun (s, v) -> (s, resolve v)) args))
    | Instr.Phi (r, s, incoming) ->
      Some (Instr.Phi (r, s, List.map (fun (l, v) -> (l, resolve v)) incoming))
    | Instr.Sancheck (k, p, size) -> Some (Instr.Sancheck (k, resolve p, size))
    | (Instr.Alloca _ | Instr.Srcloc _) -> Some i
  in
  (* Iterate block-internally until the substitution map stabilizes (a
     fold can enable another across blocks because subst is global to
     the function and registers are in SSA-ish single-def form). *)
  let inner_changed = ref true in
  while !inner_changed do
    inner_changed := false;
    List.iter
      (fun (b : Irfunc.block) ->
        let before = List.length b.Irfunc.instrs in
        b.Irfunc.instrs <- List.filter_map fold_instr b.Irfunc.instrs;
        if List.length b.Irfunc.instrs <> before then inner_changed := true)
      f.Irfunc.blocks
  done;
  (* Rewrite terminators; fold constant conditional branches. *)
  List.iter
    (fun (b : Irfunc.block) ->
      let term =
        match b.Irfunc.term with
        | Instr.Ret (Some (s, v)) -> Instr.Ret (Some (s, resolve v))
        | Instr.Condbr (c, t, e) -> begin
          match resolve c with
          | Instr.ImmInt (x, _) ->
            changed := true;
            Instr.Br (if x <> 0L then t else e)
          | c -> Instr.Condbr (c, t, e)
        end
        | Instr.Switch (v, cases, default) -> begin
          match resolve v with
          | Instr.ImmInt (x, _) ->
            changed := true;
            let target =
              match List.find_opt (fun (k, _) -> k = x) cases with
              | Some (_, l) -> l
              | None -> default
            in
            Instr.Br target
          | v -> Instr.Switch (v, cases, default)
        end
        | t -> t
      in
      b.Irfunc.term <- term)
    f.Irfunc.blocks;
  !changed

let run (m : Irmod.t) : bool =
  List.fold_left (fun acc f -> run_func f || acc) false m.Irmod.funcs
