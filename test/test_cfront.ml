(** Front-end tests: lexer, parser, type checker, layout. *)

let lex src = Lexer.tokenize src
let toks src = List.map (fun t -> t.Token.tok) (lex src)

let token = Alcotest.testable (fun ppf t -> Fmt.string ppf (Token.to_string t)) ( = )

let check_tokens msg expected src =
  Alcotest.(check (list token)) msg (expected @ [ Token.EOF ]) (toks src)

(* ---------------- lexer ---------------- *)

let test_lex_ints () =
  check_tokens "decimal" [ Token.INT_LIT (42L, Ctype.IInt, Ctype.Signed) ] "42";
  check_tokens "hex" [ Token.INT_LIT (255L, Ctype.IInt, Ctype.Signed) ] "0xFF";
  check_tokens "octal" [ Token.INT_LIT (8L, Ctype.IInt, Ctype.Signed) ] "010";
  check_tokens "long suffix" [ Token.INT_LIT (7L, Ctype.ILong, Ctype.Signed) ] "7L";
  check_tokens "unsigned suffix"
    [ Token.INT_LIT (7L, Ctype.IInt, Ctype.Unsigned) ] "7u";
  check_tokens "ul suffix"
    [ Token.INT_LIT (7L, Ctype.ILong, Ctype.Unsigned) ] "7UL";
  (* C11 6.4.4.1p5: the type is the first in the list that fits the
     value — decimal unsuffixed goes int -> long (signed only), hex may
     land on the unsigned variant of each width. *)
  check_tokens "decimal beyond int is long"
    [ Token.INT_LIT (5000000000L, Ctype.ILong, Ctype.Signed) ] "5000000000";
  check_tokens "hex beyond int is unsigned int"
    [ Token.INT_LIT (0x80000000L, Ctype.IInt, Ctype.Unsigned) ] "0x80000000";
  check_tokens "hex beyond unsigned int is long"
    [ Token.INT_LIT (0x100000001L, Ctype.ILong, Ctype.Signed) ] "0x100000001";
  check_tokens "hex beyond long is unsigned long"
    [ Token.INT_LIT (-1L, Ctype.ILong, Ctype.Unsigned) ] "0xFFFFFFFFFFFFFFFF"

let test_lex_floats () =
  check_tokens "double" [ Token.FLOAT_LIT (1.5, Ctype.FDouble) ] "1.5";
  check_tokens "float suffix" [ Token.FLOAT_LIT (2.0, Ctype.FFloat) ] "2.0f";
  check_tokens "exponent" [ Token.FLOAT_LIT (1e5, Ctype.FDouble) ] "1e5";
  check_tokens "negative exponent" [ Token.FLOAT_LIT (1.5e-3, Ctype.FDouble) ] "1.5e-3"

let test_lex_minus_not_part_of_number () =
  check_tokens "subtraction"
    [
      Token.INT_LIT (1L, Ctype.IInt, Ctype.Signed);
      Token.PUNCT "-";
      Token.INT_LIT (2L, Ctype.IInt, Ctype.Signed);
    ]
    "1-2"

let test_lex_strings_chars () =
  check_tokens "string" [ Token.STR_LIT "hi\n" ] {|"hi\n"|};
  check_tokens "concat" [ Token.STR_LIT "ab" ] {|"a" "b"|};
  check_tokens "char" [ Token.CHAR_LIT 'x' ] "'x'";
  check_tokens "escaped char" [ Token.CHAR_LIT '\n' ] {|'\n'|};
  check_tokens "nul escape" [ Token.CHAR_LIT '\000' ] {|'\0'|};
  check_tokens "hex escape" [ Token.CHAR_LIT '\065' ] {|'\x41'|}

let test_lex_comments () =
  check_tokens "line comment" [ Token.KW "int" ] "int // trailing\n";
  check_tokens "block comment" [ Token.KW "int"; Token.KW "int" ]
    "int /* a \n b */ int"

let test_lex_punct_longest_match () =
  check_tokens "shift assign" [ Token.PUNCT "<<=" ] "<<=";
  check_tokens "arrow" [ Token.IDENT "a"; Token.PUNCT "->"; Token.IDENT "b" ] "a->b";
  check_tokens "decrement"
    [ Token.IDENT "a"; Token.PUNCT "--"; Token.PUNCT "-"; Token.IDENT "b" ]
    "a-- -b";
  check_tokens "ellipsis" [ Token.PUNCT "..." ] "..."

let test_lex_define () =
  check_tokens "object macro"
    [
      Token.KW "int"; Token.IDENT "a"; Token.PUNCT "[";
      Token.INT_LIT (10L, Ctype.IInt, Ctype.Signed); Token.PUNCT "]";
      Token.PUNCT ";";
    ]
    "#define N 10\nint a[N];";
  check_tokens "macro in macro"
    [ Token.INT_LIT (4L, Ctype.IInt, Ctype.Signed);
      Token.PUNCT "+";
      Token.INT_LIT (4L, Ctype.IInt, Ctype.Signed) ]
    "#define A 4\n#define B A\nB+B"

let test_lex_include_skipped () =
  check_tokens "include line ignored" [ Token.KW "int" ] "#include <stdio.h>\nint"

let test_lex_errors () =
  let expect_error src =
    try
      ignore (lex src);
      Alcotest.fail "expected lexer error"
    with Diag.Error _ -> ()
  in
  expect_error "\"unterminated";
  expect_error "'a";
  expect_error "#define F(x) x";
  expect_error "#pragma once";
  expect_error "@"

(* ---------------- parser ---------------- *)

let parse src = Parser.parse_string src

let expect_parse_error msg src =
  try
    ignore (parse src);
    Alcotest.fail ("expected parse error: " ^ msg)
  with Diag.Error _ -> ()

let test_parse_globals () =
  let prog = parse "int x = 4; double d; char *s = \"hi\";" in
  let vars =
    List.filter_map (function Ast.Gvar d -> Some d.Ast.d_name | _ -> None) prog
  in
  Alcotest.(check (list string)) "globals" [ "x"; "d"; "s" ] vars

let test_parse_function_pointer_decl () =
  let prog = parse "int (*cmp)(const void *, const void *);" in
  match prog with
  | [ Ast.Gvar d ] -> begin
    match d.Ast.d_ty with
    | Ctype.Ptr (Ctype.Func fsig) ->
      Alcotest.(check int) "two params" 2 (List.length fsig.Ctype.params)
    | t -> Alcotest.fail ("expected function pointer, got " ^ Ctype.to_string t)
  end
  | _ -> Alcotest.fail "expected a single declaration"

let test_parse_array_of_function_pointers () =
  let prog = parse "int (*hooks[4])(int);" in
  match prog with
  | [ Ast.Gvar d ] -> begin
    match d.Ast.d_ty with
    | Ctype.Array (Ctype.Ptr (Ctype.Func _), Some 4) -> ()
    | t -> Alcotest.fail ("unexpected type " ^ Ctype.to_string t)
  end
  | _ -> Alcotest.fail "expected a single declaration"

let test_parse_enum_constants () =
  let prog = parse "enum color { RED, GREEN = 5, BLUE }; int x[BLUE];" in
  let sizes =
    List.filter_map
      (function
        | Ast.Gvar d -> (match d.Ast.d_ty with
          | Ctype.Array (_, Some n) -> Some n
          | _ -> None)
        | _ -> None)
      prog
  in
  Alcotest.(check (list int)) "BLUE = 6" [ 6 ] sizes

let test_parse_typedef () =
  let prog = parse "typedef unsigned short u16; u16 x;" in
  let tys =
    List.filter_map (function Ast.Gvar d -> Some d.Ast.d_ty | _ -> None) prog
  in
  Alcotest.(check bool) "typedef resolved" true
    (tys = [ Ctype.Int (Ctype.IShort, Ctype.Unsigned) ])

let test_parse_size_t_unsigned () =
  (* regression: typedef signedness must survive decl-spec resolution *)
  let prog = parse "size_t n;" in
  match prog with
  | [ Ast.Gvar d ] ->
    Alcotest.(check bool) "size_t is unsigned long" true
      (Ctype.equal d.Ast.d_ty Ctype.ulong_t)
  | _ -> Alcotest.fail "expected one declaration"

let test_parse_struct_def () =
  let prog = parse "struct point { int x; int y; char tag[8]; };" in
  match prog with
  | [ Ast.Gstruct ("point", fields) ] ->
    Alcotest.(check (list string)) "fields" [ "x"; "y"; "tag" ]
      (List.map (fun (f : Ast.field) -> f.Ast.f_name) fields)
  | _ -> Alcotest.fail "expected struct definition"

let test_parse_const_expr_sizes () =
  let prog = parse "int a[3 + 4 * 2]; int b[(1 << 4) | 1];" in
  let sizes =
    List.filter_map
      (function
        | Ast.Gvar d -> (match d.Ast.d_ty with
          | Ctype.Array (_, Some n) -> Some n
          | _ -> None)
        | _ -> None)
      prog
  in
  Alcotest.(check (list int)) "const arithmetic" [ 11; 17 ] sizes

let test_parse_errors () =
  expect_parse_error "missing semicolon" "int x";
  expect_parse_error "bad declarator" "int 4x;";
  expect_parse_error "unbalanced" "int f( { }";
  expect_parse_error "nonconst array size" "int x; int a[x];"

(* ---------------- sema ---------------- *)

let check_src src =
  let prog = parse src in
  ignore (Sema.check prog)

let expect_sema_error msg src =
  try
    check_src src;
    Alcotest.fail ("expected sema error: " ^ msg)
  with Diag.Error _ -> ()

let test_sema_accepts () =
  check_src "int main(void) { int a[2] = {1, 2}; return a[0] + a[1]; }";
  check_src "double f(double x) { return x * 2.0; } int main(void) { return (int)f(1.0); }";
  check_src
    "struct s { int v; }; int main(void) { struct s x; x.v = 1; struct s *p = &x; return p->v; }";
  check_src "int main(void) { char buf[4] = \"abc\"; return buf[0]; }"

let test_sema_rejects () =
  expect_sema_error "undeclared" "int main(void) { return nope; }";
  expect_sema_error "call arity" "int f(int a) { return a; } int main(void) { return f(); }";
  expect_sema_error "too many args"
    "int f(int a) { return a; } int main(void) { return f(1, 2); }";
  expect_sema_error "bad member" "struct s { int v; }; int main(void) { struct s x; return x.w; }";
  expect_sema_error "member of non-struct" "int main(void) { int x; return x.v; }";
  expect_sema_error "deref non-pointer" "int main(void) { int x; return *x; }";
  expect_sema_error "assign to rvalue" "int main(void) { 1 = 2; return 0; }";
  expect_sema_error "return value from void"
    "void f(void) { return 1; } int main(void) { return 0; }";
  expect_sema_error "struct/int assignment"
    "struct s { int v; }; int main(void) { struct s x; x = 3; return 0; }";
  expect_sema_error "struct parameter by value"
    "struct s { int v; }; int f(struct s x) { return x.v; } int main(void) { return 0; }";
  expect_sema_error "struct return by value"
    "struct s { int v; }; struct s f(void) { struct s x; return x; } int main(void) { return 0; }"

let test_sema_array_completion () =
  let prog = parse "int xs[] = {1, 2, 3, 4}; char s[] = \"hello\";" in
  ignore (Sema.check prog);
  let sizes =
    List.filter_map
      (function
        | Ast.Gvar d -> (match d.Ast.d_ty with
          | Ctype.Array (_, n) -> n
          | _ -> None)
        | _ -> None)
      prog
  in
  Alcotest.(check (list int)) "completed sizes" [ 4; 6 ] sizes

let test_usual_arith () =
  Alcotest.(check bool) "int+uint is unsigned" true
    (Ctype.usual_arith Ctype.int_t Ctype.uint_t = Ctype.uint_t);
  Alcotest.(check bool) "char promotes to int" true
    (Ctype.usual_arith Ctype.char_t Ctype.char_t = Ctype.int_t);
  Alcotest.(check bool) "int+double is double" true
    (Ctype.usual_arith Ctype.int_t Ctype.double_t = Ctype.double_t);
  Alcotest.(check bool) "long+uint is long" true
    (Ctype.usual_arith Ctype.long_t Ctype.uint_t = Ctype.long_t)

(* ---------------- layout ---------------- *)

let layout_env_of src =
  let prog = parse src in
  let env = Sema.check prog in
  env.Sema.layout

let test_layout_scalars () =
  let lenv = Layout.make_env () in
  Alcotest.(check int) "char" 1 (Layout.size lenv Ctype.char_t);
  Alcotest.(check int) "short" 2 (Layout.size lenv Ctype.short_t);
  Alcotest.(check int) "int" 4 (Layout.size lenv Ctype.int_t);
  Alcotest.(check int) "long" 8 (Layout.size lenv Ctype.long_t);
  Alcotest.(check int) "pointer" 8 (Layout.size lenv (Ctype.Ptr Ctype.Void));
  Alcotest.(check int) "array" 40 (Layout.size lenv (Ctype.Array (Ctype.int_t, Some 10)))

let test_layout_struct_padding () =
  let lenv = layout_env_of "struct s { char c; int i; char d; };" in
  (* c at 0, 3 bytes padding, i at 4, d at 8, tail padding to align 4 *)
  Alcotest.(check int) "size with padding" 12 (Layout.size lenv (Ctype.Struct "s"));
  Alcotest.(check int) "align" 4 (Layout.align lenv (Ctype.Struct "s"));
  let off_i, ty_i = Layout.field_offset lenv "s" "i" in
  Alcotest.(check int) "i offset" 4 off_i;
  Alcotest.(check bool) "i type" true (Ctype.equal ty_i Ctype.int_t);
  let off_d, _ = Layout.field_offset lenv "s" "d" in
  Alcotest.(check int) "d offset" 8 off_d

let test_layout_nested () =
  let lenv =
    layout_env_of
      "struct inner { long l; char c; }; struct outer { char tag; struct inner in; int k; };"
  in
  Alcotest.(check int) "inner size" 16 (Layout.size lenv (Ctype.Struct "inner"));
  let off_in, _ = Layout.field_offset lenv "outer" "in" in
  Alcotest.(check int) "inner aligned to 8" 8 off_in;
  Alcotest.(check int) "outer size" 32 (Layout.size lenv (Ctype.Struct "outer"))

let test_layout_field_index () =
  let lenv = layout_env_of "struct s { int a; int b; int c; };" in
  Alcotest.(check int) "index of b" 1 (Layout.field_index lenv "s" "b");
  Alcotest.(check int) "index of c" 2 (Layout.field_index lenv "s" "c")

(* ---------------- incomplete types and undefined references ---------------- *)

(* The whole user front end, prelude included, as every engine runs it. *)
let expect_diag ~line ~col ~msg src =
  match Loader.compile_program src with
  | _ -> Alcotest.failf "accepted, expected %d:%d: %s" line col msg
  | exception Diag.Error (pos, got) ->
    Alcotest.(check string) "message" msg got;
    Alcotest.(check (pair int int)) ("position of " ^ msg) (line, col)
      (pos.Token.line, pos.Token.col)

let test_incomplete_struct_rejected () =
  expect_diag ~line:3 ~col:10 ~msg:"sizeof operand has incomplete type struct S"
    "struct S;\nint main(void) {\n  return sizeof(struct S);\n}\n";
  expect_diag ~line:4 ~col:10 ~msg:"sizeof operand has incomplete type struct S"
    "struct S;\nint main(void) {\n  struct S *s = 0;\n  return sizeof(*s);\n}\n";
  expect_diag ~line:2 ~col:10 ~msg:"variable \"g\" has incomplete type struct S"
    "struct S;\nstruct S g;\nint main(void) { return 0; }\n";
  expect_diag ~line:1 ~col:54
    ~msg:"variable \"l\" has incomplete type struct S"
    "struct S; int main(void) { struct S *p = 0; struct S l; return 0; }";
  expect_diag ~line:1 ~col:46
    ~msg:"pointer arithmetic operand has incomplete type struct S"
    "struct S; int main(void) { struct S *p = 0; p++; return 0; }";
  expect_diag ~line:1 ~col:53
    ~msg:"member access operand has incomplete type struct S"
    "struct S; int main(void) { struct S *p = 0; return p->x; }";
  (* a struct is complete only after its closing brace *)
  expect_diag ~line:1 ~col:21 ~msg:"field \"a\" has incomplete type struct A"
    "struct A { struct A a; };\nint main(void) { return 0; }\n";
  expect_diag ~line:2 ~col:21 ~msg:"field \"s\" has incomplete type struct S"
    "struct S;\nstruct T { struct S s[2]; };\nint main(void) { return 0; }\n"

let test_incomplete_struct_pointers_accepted () =
  ignore
    (Loader.compile_program
       "struct S; struct L { struct L *next; struct S *opaque; };\n\
        struct S *id(struct S *p) { return p; }\n\
        int main(void) { struct L l; l.next = 0; l.opaque = id(0); return l.opaque == 0; }")

let test_undefined_reference () =
  expect_diag ~line:2 ~col:25 ~msg:"undefined reference to 'f'"
    "int f(int);\nint main(void) { return f(1); }\n";
  (* taking the address is a reference too; the first one is reported *)
  expect_diag ~line:3 ~col:34 ~msg:"undefined reference to 'g'"
    "int f(int);\nint g(int);\nint main(void) { int (*h)(int) = g; return f(1) + h(2); }\n"

let test_defined_or_libc_prototypes_accepted () =
  List.iter
    (fun src -> ignore (Loader.compile_program src))
    [
      (* declared, never referenced *)
      "int f(int);\nint main(void) { return 3; }\n";
      (* declared before, defined after the use *)
      "int f(int);\nint main(void) { return f(1); }\nint f(int x) { return x; }\n";
      (* a libc function redeclared by the program *)
      "int abs(int x);\nint main(void) { return abs(-1); }\n";
    ]

let () =
  Alcotest.run "cfront"
    [
      ( "lexer",
        [
          Alcotest.test_case "ints" `Quick test_lex_ints;
          Alcotest.test_case "floats" `Quick test_lex_floats;
          Alcotest.test_case "minus binds as operator" `Quick
            test_lex_minus_not_part_of_number;
          Alcotest.test_case "strings and chars" `Quick test_lex_strings_chars;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "punct longest match" `Quick
            test_lex_punct_longest_match;
          Alcotest.test_case "#define" `Quick test_lex_define;
          Alcotest.test_case "#include skipped" `Quick test_lex_include_skipped;
          Alcotest.test_case "errors" `Quick test_lex_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "globals" `Quick test_parse_globals;
          Alcotest.test_case "function pointer" `Quick
            test_parse_function_pointer_decl;
          Alcotest.test_case "array of function pointers" `Quick
            test_parse_array_of_function_pointers;
          Alcotest.test_case "enum constants" `Quick test_parse_enum_constants;
          Alcotest.test_case "typedef" `Quick test_parse_typedef;
          Alcotest.test_case "size_t is unsigned" `Quick test_parse_size_t_unsigned;
          Alcotest.test_case "struct definition" `Quick test_parse_struct_def;
          Alcotest.test_case "constant array sizes" `Quick
            test_parse_const_expr_sizes;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "sema",
        [
          Alcotest.test_case "accepts valid programs" `Quick test_sema_accepts;
          Alcotest.test_case "rejects invalid programs" `Quick test_sema_rejects;
          Alcotest.test_case "array completion" `Quick test_sema_array_completion;
          Alcotest.test_case "usual arithmetic conversions" `Quick
            test_usual_arith;
        ] );
      ( "layout",
        [
          Alcotest.test_case "scalars" `Quick test_layout_scalars;
          Alcotest.test_case "struct padding" `Quick test_layout_struct_padding;
          Alcotest.test_case "nested structs" `Quick test_layout_nested;
          Alcotest.test_case "field index" `Quick test_layout_field_index;
        ] );
      ( "link",
        [
          Alcotest.test_case "incomplete struct rejected" `Quick
            test_incomplete_struct_rejected;
          Alcotest.test_case "incomplete pointers accepted" `Quick
            test_incomplete_struct_pointers_accepted;
          Alcotest.test_case "undefined reference" `Quick test_undefined_reference;
          Alcotest.test_case "defined or libc prototypes" `Quick
            test_defined_or_libc_prototypes_accepted;
        ] );
    ]
