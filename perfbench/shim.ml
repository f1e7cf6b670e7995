(** Timing shims: x-kernel virtual protocols that record spans.

    [Make (P) (K)] is a protocol identical to [P] — same addresses, same
    wire format, no header of its own — that records a span around every
    call into [P] (kind [K.tx], or [K.open_] / [K.close] for connection
    set-up and teardown) and around every upcall [P] makes into the layer
    above (kind [K.rx]).  It is {!Fox_proto.Meter} recording start and end
    instead of charging a cost model, and it composes the same way:

    {[
      module Ip_s = Shim.Make (Ip) (struct ... end)
      module Tcp = Tcp.Make (Ip_s) (Ip_s.Lift_aux (Ip_aux)) (...)
    ]}

    Each application also counts the data messages crossing it in both
    directions, and offers a hook that sees every message sent down, so
    the benchmark can compare what crossed a boundary with what the layers
    report about themselves. *)

open Fox_basis
module Protocol = Fox_proto.Protocol

module type KINDS = sig
  val tx : Spans.kind
  val open_ : Spans.kind
  val close : Spans.kind
  val rx : Spans.kind
end

module Make
    (P : Protocol.PROTOCOL
           with type incoming_message = Packet.t
            and type outgoing_message = Packet.t)
    (K : KINDS) : sig
  include
    Protocol.PROTOCOL
      with type t = P.t
       and type address = P.address
       and type address_pattern = P.address_pattern
       and type listener = P.listener
       and type incoming_message = Packet.t
       and type outgoing_message = Packet.t

  val inner : connection -> P.connection

  (** Messages sent down through [P], and delivered up out of it. *)
  val sent : int ref

  val delivered : int ref

  (** Called with every message before it is sent down. *)
  val on_send : (Packet.t -> unit) ref

  module Lift_aux
      (Aux : Protocol.IP_AUX
               with type lower_connection = P.connection
                and type lower_address = P.address
                and type lower_pattern = P.address_pattern) :
    Protocol.IP_AUX
      with type host = Aux.host
       and type lower_address = address
       and type lower_pattern = address_pattern
       and type lower_connection = connection
end = struct
  include Fox_proto.Common

  type t = P.t

  type address = P.address

  type address_pattern = P.address_pattern

  type incoming_message = Packet.t

  type outgoing_message = Packet.t

  type data_handler = incoming_message -> unit

  type status_handler = Fox_proto.Status.t -> unit

  type connection = { pconn : P.connection; id : int }

  type listener = P.listener

  type handler = connection -> data_handler * status_handler

  let sent = ref 0

  let delivered = ref 0

  let on_send = ref ignore

  let next_id = ref 0

  let inner conn = conn.pconn

  (* [cell] receives the wrapped connection the handler was given *)
  let wrap_handler ?(cell = ref None) (handler : handler) pconn =
    incr next_id;
    let conn = { pconn; id = !next_id } in
    cell := Some conn;
    let data, status = Spans.span K.rx ~conn:conn.id handler conn in
    ( (fun packet ->
        incr delivered;
        Spans.span K.rx ~conn:conn.id data packet),
      fun s -> Spans.span K.rx ~conn:conn.id status s )

  let connect t address handler =
    let cell = ref None in
    let pconn =
      Spans.span K.open_ (P.connect t address) (wrap_handler ~cell handler)
    in
    match !cell with
    | Some conn -> conn
    | None ->
      incr next_id;
      { pconn; id = !next_id }

  let start_passive t pattern handler =
    Spans.span K.open_ (P.start_passive t pattern) (wrap_handler handler)

  let stop_passive l = Spans.span K.close P.stop_passive l

  let send conn packet =
    incr sent;
    !on_send packet;
    Spans.span K.tx ~conn:conn.id (P.send conn.pconn) packet

  let prepare_send conn =
    let late = Spans.span K.tx ~conn:conn.id P.prepare_send conn.pconn in
    fun packet ->
      incr sent;
      !on_send packet;
      Spans.span K.tx ~conn:conn.id late packet

  let close conn = Spans.span K.close ~conn:conn.id P.close conn.pconn

  let abort conn = Spans.span K.close ~conn:conn.id P.abort conn.pconn

  let initialize t = P.initialize t

  let finalize t = P.finalize t

  let allocate_send conn len =
    Spans.span K.tx ~conn:conn.id (P.allocate_send conn.pconn) len

  let max_packet_size conn = P.max_packet_size conn.pconn

  let headroom conn = P.headroom conn.pconn

  let tailroom conn = P.tailroom conn.pconn

  let pp_address = P.pp_address

  module Lift_aux
      (Aux : Protocol.IP_AUX with type lower_connection = P.connection) =
  struct
    type host = Aux.host

    type lower_address = Aux.lower_address

    type lower_pattern = Aux.lower_pattern

    type lower_connection = connection

    let hash = Aux.hash

    let equal = Aux.equal

    let to_string = Aux.to_string

    let lower_address = Aux.lower_address

    let default_pattern = Aux.default_pattern

    let source conn = Aux.source conn.pconn

    let pseudo conn ~proto ~len = Aux.pseudo conn.pconn ~proto ~len

    let mtu conn = Aux.mtu conn.pconn
  end
end

(** The device ↔ wire boundary: [port p] is [p] with every transmit
    recorded as a [Wire_tx] span and every delivery as an [Eth_rx] span
    (the device and Ethernet receive path, with IP and above as
    children). *)
let frames_sent = ref 0

let frames_delivered = ref 0

let port (p : Fox_dev.Link.port) : Fox_dev.Link.port =
  {
    Fox_dev.Link.transmit =
      (fun frame ->
        incr frames_sent;
        Spans.span Spans.Wire_tx p.Fox_dev.Link.transmit frame);
    set_receive =
      (fun handler ->
        p.Fox_dev.Link.set_receive (fun frame ->
            incr frames_delivered;
            Spans.span Spans.Eth_rx handler frame));
  }
