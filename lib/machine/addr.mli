(** Address arithmetic and protection bits for the simulated Alpha.

    Pages are 8 KB as on the Alpha AXP. Virtual and physical addresses
    are plain integers; these helpers keep page arithmetic in one
    place. *)

val page_size : int
(** 8192 bytes. *)

val page_mask : int

type prot = { read : bool; write : bool; execute : bool }

val prot_read : prot
val prot_read_write : prot

val prot_allows : prot -> [ `Read | `Write | `Execute ] -> bool

val vpn_of_va : int -> int
(** Virtual page number containing a virtual address. *)

val offset_of_va : int -> int

val page_of_pa : int -> int

val pa_of_page : int -> int

val round_up_pages : int -> int
(** [round_up_pages bytes] is the number of pages covering [bytes]. *)
