(** A sparse byte store in 4 KiB pages: the storage under the native
    address space ([Mem]) and under every sanitizer shadow ([Shadow]).

    A page is either {e uniform} — every byte holds one value, and the
    page shares a read-only image of that value with the other uniform
    pages of the store — or {e materialized}: it owns its bytes, copied
    from the uniform image on the first write.  A fill that covers a
    whole page returns it to uniform.  So a fresh store costs O(pages),
    not O(bytes), and poisoning a 12 MiB region costs 3072 pointer
    writes.

    Addresses are byte indices in [\[0, size)].  The store does no range
    checking of its own beyond OCaml's array and bytes bounds; callers
    ([Mem.check], [Shadow]) validate addresses first. *)

type t

val page_size : int

(** [create size]: [size] bytes, all zero.  [size] must be a positive
    multiple of [page_size]. *)
val create : int -> t

(** The byte at an address. *)
val get : t -> int -> char

(** [load t a n] reads the [n]-byte (1, 2, 4 or 8) little-endian integer
    at [a]: 1- and 2-byte values zero-extended, 4-byte values
    sign-extended.  An access inside one page is one array load; only an
    access that straddles a page boundary goes byte by byte. *)
val load : t -> int -> int -> int64

(** [store t a n v] writes the low [n] (1, 2, 4 or 8) bytes of [v]
    little-endian at [a], materializing the pages it touches. *)
val store : t -> int -> int -> int64 -> unit

(** [fill t a n c] sets [n] bytes from [a] to [c].  Whole pages become
    uniform; a partial page already uniform in [c] stays uniform. *)
val fill : t -> int -> int -> char -> unit

(** [blit t ~src ~dst n] copies [n] bytes from [src] to [dst] as if
    through a temporary buffer (memmove: overlap in either direction is
    safe). *)
val blit : t -> src:int -> dst:int -> int -> unit

(** [first_diff t lo hi c]: the first address in [\[lo, hi)] whose byte
    is not [c], or [-1].  Uniform pages are skipped whole. *)
val first_diff : t -> int -> int -> char -> int

(** Pages that own storage (written since they were last uniform). *)
val resident_pages : t -> int
