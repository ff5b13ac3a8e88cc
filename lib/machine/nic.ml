module Ring = Spin_dstruct.Ring

type kind = Lance | Fore_atm | T3

type io_model =
  | Pio of { cycles_per_word32 : int }
  | Dma of { setup_cycles : int }

type t = {
  sim : Sim.t;
  intr : Intr.t;
  line : int;
  kind : kind;
  mtu : int;
  io : io_model;
  rx_ring : Bytes.t Ring.t;
  mutable link : (Link.t * Link.endpoint) option;
  mutable rx_dropped : int;
}

let mtu_of = function
  | Lance -> 1500
  | Fore_atm -> 9180
  | T3 -> 1500

let io_of = function
  | Lance -> Dma { setup_cycles = 400 }
  | Fore_atm -> Pio { cycles_per_word32 = 80 }   (* tx; rx costs more *)
  | T3 -> Dma { setup_cycles = 500 }

let link_mbps = function
  | Lance -> 10.
  | Fore_atm -> 155.
  | T3 -> 45.

let kind_name = function
  | Lance -> "lance-ethernet"
  | Fore_atm -> "fore-atm"
  | T3 -> "t3-dma"

(* Frames the receive ring holds; the device drops any past these. *)
let rx_ring_size = 64

let create sim intr ~line ~kind =
  { sim; intr; line; kind; mtu = mtu_of kind; io = io_of kind;
    rx_ring = Ring.create ~dummy:Bytes.empty rx_ring_size;
    link = None;
    rx_dropped = 0 }

let kind t = t.kind

let line t = t.line

let mtu t = t.mtu

let header_allowance = 48

let charge_io ?(rx = false) t len =
  let clock = Sim.clock t.sim in
  match t.io with
  | Dma { setup_cycles } -> Clock.charge clock setup_cycles
  | Pio { cycles_per_word32 } ->
    (* Device reads over the bus are slower than writes. *)
    let per_word = if rx then cycles_per_word32 * 3 / 2 else cycles_per_word32 in
    Clock.charge clock (((len + 3) / 4) * per_word)

let attach t link ep =
  t.link <- Some (link, ep);
  Link.set_receiver link ep (fun frame ->
    if Ring.length t.rx_ring < rx_ring_size then begin
      Ring.add t.rx_ring frame;
      Intr.post t.intr ~line:t.line
    end else
      t.rx_dropped <- t.rx_dropped + 1)

(* The device copies the frame out of host memory (DMA or PIO) as it
   goes onto the wire. A delivered frame therefore never aliases the
   sender's buffers, and the receive path may use it in place. *)
let transmit t ~off ~len frame =
  if off < 0 || len < 0 || off + len > Bytes.length frame then
    invalid_arg "Nic.transmit";
  match t.link with
  | None -> false
  | Some (link, ep) ->
    if len > t.mtu + header_allowance then false
    else begin
      charge_io t len;
      Link.send link ~from:ep (Bytes.sub frame off len);
      true
    end

let rx_pending t = not (Ring.is_empty t.rx_ring)

let receive t =
  let frame = Ring.take t.rx_ring in
  charge_io ~rx:true t (Bytes.length frame);
  frame

let rx_dropped t = t.rx_dropped


