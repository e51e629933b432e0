(* See pages.mli.  A uniform page is represented by the store's shared
   image of its byte value ([uniform.(c)], made on first use and never
   written); a page is materialized iff it is not physically that image.
   Reads therefore never need to know which kind a page is. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let offset_mask = page_size - 1
let imin (a : int) b = if a <= b then a else b

type t = {
  pages : Bytes.t array;
  uniform : Bytes.t array;  (** per byte value; [Bytes.empty] until used *)
}

let uniform_page t c =
  let p = t.uniform.(Char.code c) in
  if p != Bytes.empty then p
  else begin
    let p = Bytes.make page_size c in
    t.uniform.(Char.code c) <- p;
    p
  end

let is_uniform t p =
  p == Array.unsafe_get t.uniform (Char.code (Bytes.unsafe_get p 0))

let create size =
  if size <= 0 || size land offset_mask <> 0 then
    invalid_arg "Pages.create: size must be a positive multiple of the page size";
  let zero = Bytes.make page_size '\000' in
  let uniform = Array.make 256 Bytes.empty in
  uniform.(0) <- zero;
  { pages = Array.make (size lsr page_bits) zero; uniform }

let resident_pages t =
  Array.fold_left (fun n p -> if is_uniform t p then n else n + 1) 0 t.pages

(* The page holding address index [i], materialized for writing. *)
let writable t i =
  let p = t.pages.(i) in
  if is_uniform t p then begin
    let q = Bytes.copy p in
    t.pages.(i) <- q;
    q
  end
  else p

let get t a = Bytes.get t.pages.(a lsr page_bits) (a land offset_mask)

let set t a c = Bytes.set (writable t (a lsr page_bits)) (a land offset_mask) c

let check_size name n =
  if n <> 2 && n <> 4 && n <> 8 then invalid_arg (name ^ ": bad size")

let load_straddling t a n =
  check_size "Pages.load" n;
  let v = ref 0L in
  for i = n - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (get t (a + i))))
  done;
  if n = 4 then Int64.of_int32 (Int64.to_int32 !v) else !v

let load t a n =
  let o = a land offset_mask in
  if o + n <= page_size then begin
    let p = t.pages.(a lsr page_bits) in
    match n with
    | 1 -> Int64.of_int (Bytes.get_uint8 p o)
    | 2 -> Int64.of_int (Bytes.get_uint16_le p o)
    | 4 -> Int64.of_int32 (Bytes.get_int32_le p o)
    | 8 -> Bytes.get_int64_le p o
    | _ -> invalid_arg "Pages.load: bad size"
  end
  else load_straddling t a n

let store_straddling t a n v =
  check_size "Pages.store" n;
  for i = 0 to n - 1 do
    set t (a + i)
      (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done

let store t a n v =
  let o = a land offset_mask in
  if o + n <= page_size then begin
    let p = writable t (a lsr page_bits) in
    match n with
    | 1 -> Bytes.set_uint8 p o (Int64.to_int v land 0xff)
    | 2 -> Bytes.set_uint16_le p o (Int64.to_int v land 0xffff)
    | 4 -> Bytes.set_int32_le p o (Int64.to_int32 v)
    | 8 -> Bytes.set_int64_le p o v
    | _ -> invalid_arg "Pages.store: bad size"
  end
  else store_straddling t a n v

(* [f page_index page_offset pos len] for each page-local piece of
   [start, start+n), [pos] counting from 0 at [start]. *)
let iter_pieces start n f =
  let rec go pos =
    if pos < n then begin
      let a = start + pos in
      let o = a land offset_mask in
      let len = imin (n - pos) (page_size - o) in
      f (a lsr page_bits) o pos len;
      go (pos + len)
    end
  in
  go 0

let fill_piece t i o len c =
  if len = page_size then t.pages.(i) <- uniform_page t c
  else begin
    let p = t.pages.(i) in
    if not (is_uniform t p && Bytes.unsafe_get p 0 = c) then
      Bytes.fill (writable t i) o len c
  end

let fill t a n c =
  let o = a land offset_mask in
  if o + n <= page_size then begin
    if n > 0 then fill_piece t (a lsr page_bits) o n c
  end
  else iter_pieces a n (fun i o _ len -> fill_piece t i o len c)

let blit t ~src ~dst n =
  if n > 0 then begin
    let tmp = Bytes.create n in
    iter_pieces src n (fun i o pos len -> Bytes.blit t.pages.(i) o tmp pos len);
    iter_pieces dst n (fun i o pos len -> Bytes.blit tmp pos (writable t i) o len)
  end

let rec first_diff_from t a hi c =
  if a >= hi then -1
  else begin
    let i = a lsr page_bits in
    let stop = imin hi ((i + 1) lsl page_bits) in
    let p = t.pages.(i) in
    if is_uniform t p then
      if Bytes.unsafe_get p 0 = c then first_diff_from t stop hi c else a
    else scan_page t p a stop hi c
  end

and scan_page t p a stop hi c =
  if a >= stop then first_diff_from t stop hi c
  else if Bytes.unsafe_get p (a land offset_mask) <> c then a
  else scan_page t p (a + 1) stop hi c

let first_diff t lo hi c = first_diff_from t lo hi c
