(** The flat-memory native execution model: one linear address space, as
    the machine gives a process, stored sparsely ([Pages]): a page costs
    memory only once the program writes it.  This is the substrate that
    Clang-style compilation targets in this reproduction and that the
    sanitizer simulators instrument.  Errors are *not defined* here: an
    out-of-bounds store silently corrupts a neighbour, a wild access
    outside the mapped range raises a simulated SIGSEGV — exactly the
    behaviours the paper's P1–P4 arguments rest on. *)

exception Segfault of int64

(* Address-space layout (16 MiB), LP64-flavoured but compact:
   page 0 unmapped; globals; heap growing up; stack growing down from
   [stack_top]; the argv/envp area *above* the stack, written by the
   "kernel" before any instrumented code runs (paper case study 1). *)
let null_guard = 0x1000
let globals_base = 0x0001_0000
let heap_base = 0x0010_0000
let heap_limit = 0x00D0_0000
let stack_top = 0x00E8_0000
let stack_limit = 0x00D0_0000
let argv_base = 0x00E8_0000
let func_base = 0x00F0_0000 (* synthetic code addresses for function ptrs *)
let mem_size = 0x0100_0000

type t = {
  pages : Pages.t;
  mutable brk : int;      (** heap bump pointer *)
  mutable global_top : int;
  mutable argv_top : int;
}

let create () =
  {
    pages = Pages.create mem_size;
    brk = heap_base;
    global_top = globals_base;
    argv_top = argv_base;
  }

let check mem addr size =
  let a = Int64.to_int addr in
  if a < null_guard || a + size > mem_size || size < 0 then
    raise (Segfault addr);
  ignore mem

let load_int mem addr ~size : int64 =
  check mem addr size;
  Pages.load mem.pages (Int64.to_int addr) size

let store_int mem addr ~size (v : int64) : unit =
  check mem addr size;
  Pages.store mem.pages (Int64.to_int addr) size v

let load_float mem addr ~size : float =
  let bits = load_int mem addr ~size in
  if size = 4 then Int32.float_of_bits (Int64.to_int32 bits)
  else Int64.float_of_bits bits

let store_float mem addr ~size (v : float) : unit =
  let bits =
    if size = 4 then Int64.of_int32 (Int32.bits_of_float v)
    else Int64.bits_of_float v
  in
  store_int mem addr ~size bits

(** memmove of [n] bytes from [src] to [dst]. *)
let blit mem ~src ~dst n =
  check mem dst n;
  check mem src n;
  Pages.blit mem.pages ~src:(Int64.to_int src) ~dst:(Int64.to_int dst) n

(** memset of [n] bytes at [addr] to [c]. *)
let fill mem addr n c =
  check mem addr n;
  Pages.fill mem.pages (Int64.to_int addr) n c

(** Pages of the address space the program has written (of
    [mem_size / Pages.page_size]). *)
let resident_pages mem = Pages.resident_pages mem.pages

(** Read a NUL-terminated string (no checks beyond the address space —
    this is how the native model overruns silently). *)
let read_cstring mem addr : string =
  let buf = Buffer.create 16 in
  let rec go a =
    let c = load_int mem a ~size:1 in
    if c <> 0L then begin
      Buffer.add_char buf (Char.chr (Int64.to_int c));
      go (Int64.add a 1L)
    end
  in
  go addr;
  Buffer.contents buf

let write_string mem addr (s : string) : unit =
  String.iteri
    (fun i c ->
      store_int mem (Int64.add addr (Int64.of_int i)) ~size:1
        (Int64.of_int (Char.code c)))
    s

(** Reserve [size] bytes in the globals region, [gap] poisonable padding
    after it (the ASan engine lays out globals with redzone gaps). *)
let alloc_global mem ~size ~align ~gap : int64 =
  let base = Util.align_up mem.global_top (max align 1) in
  mem.global_top <- base + size + gap;
  if mem.global_top > heap_base then failwith "Mem: globals region overflow";
  Int64.of_int base

(** Reserve bytes in the argv/envp area above the stack. *)
let alloc_argv_area mem ~size : int64 =
  let base = Util.align_up mem.argv_top 8 in
  mem.argv_top <- base + size;
  if mem.argv_top > func_base then failwith "Mem: argv region overflow";
  Int64.of_int base
