(** Native-engine tests: the same semantic battery as the managed
    interpreter (at -O0 and -O3 — every pipeline implements the same C),
    plus the undefined behaviours that only exist natively: silent
    corruption, argv/envp leaks, SIGSEGV. *)

let run_native ?(level = Pipeline.O0) ?(argv = [ "prog" ]) ?(input = "") src =
  Engine.run ~argv ~input (Engine.Clang level) src

let check_case level (c : Cases.case) () =
  let r = run_native ~level ~input:c.Cases.input c.Cases.src in
  (match r.Engine.outcome with
  | Outcome.Finished _ -> ()
  | o -> Alcotest.failf "%s: abnormal outcome %s" c.Cases.name (Outcome.to_string o));
  Alcotest.(check string) c.Cases.name c.Cases.expected r.Engine.output

let battery level =
  List.map
    (fun (c : Cases.case) ->
      Alcotest.test_case c.Cases.name `Quick (check_case level c))
    Cases.all

(* ---------------- undefined behaviour, natively ---------------- *)

let test_silent_stack_corruption () =
  let r =
    run_native
      {|
int main(void) {
  int canary = 1234;
  int arr[4];
  for (int i = 0; i <= 5; i++) { arr[i] = 99; }
  printf("%d\n", canary);
  return 0;
}
|}
  in
  (* the overflow silently overwrote the neighbouring local *)
  Alcotest.(check string) "canary clobbered" "99\n" r.Engine.output

let test_argv_oob_leaks_environment () =
  let r =
    run_native
      {|
int main(int argc, char **argv) {
  printf("%s\n", argv[3]);
  return 0;
}
|}
  in
  Alcotest.(check bool) "an environment variable leaks" true
    (Util.string_contains ~needle:"=" r.Engine.output)

let test_null_deref_segfaults () =
  let r = run_native "int main(void) { int *p = 0; return *p; }" in
  match r.Engine.outcome with
  | Outcome.Crashed what ->
    Alcotest.(check bool) "SIGSEGV" true (Util.string_contains ~needle:"SIGSEGV" what)
  | o -> Alcotest.failf "expected crash, got %s" (Outcome.to_string o)

let test_wild_pointer_segfaults () =
  let r =
    run_native "int main(void) { int *p = (int *)99999999999L; return *p; }"
  in
  match r.Engine.outcome with
  | Outcome.Crashed _ -> ()
  | o -> Alcotest.failf "expected crash, got %s" (Outcome.to_string o)

let test_sigfpe () =
  let r = run_native "int main(int argc, char **argv) { return 7 / (argc - 1); }" in
  match r.Engine.outcome with
  | Outcome.Crashed what ->
    Alcotest.(check bool) "SIGFPE" true (Util.string_contains ~needle:"SIGFPE" what)
  | o -> Alcotest.failf "expected SIGFPE, got %s" (Outcome.to_string o)

let test_use_after_free_reads_stale_or_reused () =
  (* no crash, no diagnosis: the data is simply still there (or reused) *)
  let r =
    run_native
      {|
int main(void) {
  int *p = (int *)malloc(4);
  *p = 77;
  free(p);
  printf("%d\n", *p);
  return 0;
}
|}
  in
  match r.Engine.outcome with
  | Outcome.Finished 0 -> ()
  | o -> Alcotest.failf "expected silent completion, got %s" (Outcome.to_string o)

let test_heap_reuse_after_free () =
  let r =
    run_native
      {|
int main(void) {
  char *a = (char *)malloc(16);
  free(a);
  char *b = (char *)malloc(16);
  /* the allocator reuses the freed block: UAF aliases new data */
  printf("%d\n", a == b);
  free(b);
  return 0;
}
|}
  in
  Alcotest.(check string) "block reused" "1\n" r.Engine.output

let test_stack_exhaustion_crashes () =
  let r =
    run_native
      "int f(int n) { int pad[64]; pad[0] = n; return f(n + 1) + pad[0]; } \
       int main(void) { return f(0); }"
  in
  match r.Engine.outcome with
  | Outcome.Crashed _ -> ()
  | o -> Alcotest.failf "expected stack crash, got %s" (Outcome.to_string o)

(* ---------------- word-wise strlen ---------------- *)

let test_wordwise_strlen_reads_past_nul () =
  (* correctness is unaffected; the point is that it does not crash and
     produces the right length despite reading in 8-byte gulps *)
  let r =
    run_native
      {|
int main(void) {
  char s[3] = "ab";
  printf("%d %d %d\n", (int)strlen(s), (int)strlen(""), (int)strlen("0123456789a"));
  return 0;
}
|}
  in
  Alcotest.(check string) "lengths" "2 0 11\n" r.Engine.output

(* ---------------- the sparse page store ---------------- *)

(* Random operation sequences run on a 4-page [Pages.t] and on a flat
   [Bytes.t] of the same size; every read must agree.  Addresses cluster
   at page boundaries +-8 so straddling accesses, fills that end or
   start mid-page, exact whole-page fills and page-crossing blits all
   come up often. *)

let store_pages = 4
let store_size = store_pages * Pages.page_size

type page_op =
  | Load of int * int
  | Store of int * int * int64
  | Fill of int * int * char
  | Blit of int * int * int
  | First_diff of int * int * char

let show_page_op = function
  | Load (a, n) -> Printf.sprintf "load %d %d" a n
  | Store (a, n, v) -> Printf.sprintf "store %d %d %Ld" a n v
  | Fill (a, n, c) -> Printf.sprintf "fill %d %d %C" a n c
  | Blit (s, d, n) -> Printf.sprintf "blit %d->%d %d" s d n
  | First_diff (lo, hi, c) -> Printf.sprintf "first_diff %d %d %C" lo hi c

let gen_page_op =
  let open QCheck.Gen in
  let page = Pages.page_size in
  let clamp lo hi a = max lo (min hi a) in
  let near_boundary =
    map2 (fun k d -> (k * page) + d) (int_range 0 store_pages) (int_range (-8) 8)
  in
  let addr = oneof [ near_boundary; int_bound (store_size - 1) ] in
  let byte = oneofl [ '\000'; '\001'; '\007'; '\255' ] in
  let size = oneofl [ 1; 2; 4; 8 ] in
  let span = oneof [ return 0; int_range 1 16; int_range 1 (3 * page) ] in
  frequency
    [
      (3, map2 (fun a n -> Load (clamp 0 (store_size - n) a, n)) addr size);
      ( 3,
        map3
          (fun a n v -> Store (clamp 0 (store_size - n) a, n, v))
          addr size ui64 );
      ( 2,
        map3
          (fun a n c ->
            let a = clamp 0 store_size a in
            Fill (a, min n (store_size - a), c))
          addr span byte );
      ( 1,
        (* exact whole pages *)
        map3
          (fun k j c -> Fill (k * page, min j (store_pages - k) * page, c))
          (int_range 0 (store_pages - 1)) (int_range 1 3) byte );
      ( 2,
        map3
          (fun s delta n ->
            (* overlapping in either direction when |delta| < n *)
            let s = clamp 0 store_size s in
            let d = clamp 0 store_size (s + delta) in
            Blit (s, d, min n (store_size - max s d)))
          addr (int_range (-40) 40) span );
      ( 2,
        map3
          (fun lo n c ->
            let lo = clamp 0 store_size lo in
            First_diff (lo, min store_size (lo + n), c))
          addr span byte );
    ]

let flat_load b a n =
  match n with
  | 1 -> Int64.of_int (Bytes.get_uint8 b a)
  | 2 -> Int64.of_int (Bytes.get_uint16_le b a)
  | 4 -> Int64.of_int32 (Bytes.get_int32_le b a)
  | _ -> Bytes.get_int64_le b a

let flat_store b a n v =
  match n with
  | 1 -> Bytes.set_uint8 b a (Int64.to_int v land 0xff)
  | 2 -> Bytes.set_uint16_le b a (Int64.to_int v land 0xffff)
  | 4 -> Bytes.set_int32_le b a (Int64.to_int32 v)
  | _ -> Bytes.set_int64_le b a v

let flat_first_diff b lo hi c =
  let rec go a = if a >= hi then -1 else if Bytes.get b a <> c then a else go (a + 1) in
  go lo

let pages_agree_with_flat ops =
  let t = Pages.create store_size in
  let flat = Bytes.make store_size '\000' in
  let step = function
    | Load (a, n) -> Pages.load t a n = flat_load flat a n
    | Store (a, n, v) ->
      Pages.store t a n v;
      flat_store flat a n v;
      true
    | Fill (a, n, c) ->
      Pages.fill t a n c;
      Bytes.fill flat a n c;
      true
    | Blit (src, dst, n) ->
      Pages.blit t ~src ~dst n;
      Bytes.blit flat src flat dst n;
      true
    | First_diff (lo, hi, c) -> Pages.first_diff t lo hi c = flat_first_diff flat lo hi c
  in
  List.for_all step ops
  && Seq.for_all (fun a -> Pages.get t a = Bytes.get flat a) (Seq.init store_size Fun.id)

let pages_prop =
  QCheck.Test.make ~count:300 ~name:"agrees with a flat byte array"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_page_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 60) gen_page_op))
    pages_agree_with_flat

let test_pages_residency () =
  let t = Pages.create store_size in
  let page = Pages.page_size in
  Alcotest.(check int) "fresh store owns no page" 0 (Pages.resident_pages t);
  Pages.store t (page - 2) 4 0x11223344L;
  Alcotest.(check int) "a straddling store touches two pages" 2
    (Pages.resident_pages t);
  Pages.fill t 0 (2 * page) '\007';
  Alcotest.(check int) "whole-page fills return pages to uniform" 0
    (Pages.resident_pages t);
  Pages.fill t page 10 '\007';
  Alcotest.(check int) "a fill matching a uniform page keeps it uniform" 0
    (Pages.resident_pages t);
  Alcotest.(check int) "a uniform page is skipped whole" (2 * page)
    (Pages.first_diff t 0 store_size '\007')

let () =
  Alcotest.run "native"
    [
      ("semantics -O0", battery Pipeline.O0);
      ("semantics -O3", battery Pipeline.O3);
      ( "undefined behaviour",
        [
          Alcotest.test_case "silent stack corruption" `Quick
            test_silent_stack_corruption;
          Alcotest.test_case "argv leak" `Quick test_argv_oob_leaks_environment;
          Alcotest.test_case "NULL segfault" `Quick test_null_deref_segfaults;
          Alcotest.test_case "wild pointer segfault" `Quick
            test_wild_pointer_segfaults;
          Alcotest.test_case "SIGFPE" `Quick test_sigfpe;
          Alcotest.test_case "silent use-after-free" `Quick
            test_use_after_free_reads_stale_or_reused;
          Alcotest.test_case "heap reuse" `Quick test_heap_reuse_after_free;
          Alcotest.test_case "stack exhaustion" `Quick
            test_stack_exhaustion_crashes;
          Alcotest.test_case "word-wise strlen" `Quick
            test_wordwise_strlen_reads_past_nul;
        ] );
      ( "page store",
        Alcotest.test_case "residency" `Quick test_pages_residency
        :: List.map QCheck_alcotest.to_alcotest [ pages_prop ] );
    ]
