let page_shift = 13
let page_size = 1 lsl page_shift
let page_mask = page_size - 1

type prot = { read : bool; write : bool; execute : bool }

let prot_read = { read = true; write = false; execute = false }
let prot_read_write = { read = true; write = true; execute = false }

let prot_allows p = function
  | `Read -> p.read
  | `Write -> p.write
  | `Execute -> p.execute

let vpn_of_va va = va lsr page_shift
let offset_of_va va = va land page_mask
let page_of_pa pa = pa lsr page_shift
let pa_of_page p = p lsl page_shift
let round_up_pages bytes = (bytes + page_size - 1) / page_size
