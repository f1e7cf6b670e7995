(** The stacks under test, assembled by functor application the way
    [Fox_stack.Stack] assembles the shipped ones: Device → Eth → Ip → Tcp
    with Reno congestion control, and the socket veneer on top.

    [Plain] is exactly that composition and is what every end-to-end
    number is measured on.  [Traced] is the same composition with a
    {!Shim} at each boundary — app↔Tcp, Tcp↔Ip, Ip↔Eth and Eth↔the
    [Link.port] record — and a span around each socket call; it serves
    only the traced run.  Both present {!S}, so a workload is written once
    as a functor over it. *)

open Fox_basis
module Link = Fox_dev.Link
module Device = Fox_dev.Device
module Mac = Fox_eth.Mac
module Ipv4_addr = Fox_ip.Ipv4_addr
module Route = Fox_ip.Route
module Status = Fox_proto.Status

type handler = Packet.t -> unit

(** What a workload needs from a stack. *)
module type S = sig
  val traced : bool

  (** [app f x] is [f x], recorded as application work when traced. *)
  val app : ('a -> 'b) -> 'a -> 'b

  (** [run main] is [Scheduler.run main]; when traced, the run is one
      {!Spans} round and its summary is left in {!Spans.last}. *)
  val run : (unit -> unit) -> Fox_sched.Scheduler.stats

  type tcp

  type conn

  (** [host link i addr] builds the whole stack on port [i] of [link]. *)
  val host : Link.t -> int -> Ipv4_addr.t -> tcp

  val connect :
    tcp -> Ipv4_addr.t -> int -> (conn -> handler * (Status.t -> unit)) -> conn

  val listen : tcp -> int -> (conn -> handler * (Status.t -> unit)) -> unit

  val allocate_send : conn -> int -> Packet.t

  val send : conn -> Packet.t -> unit

  val close : conn -> unit

  val mss : conn -> int

  val conn_stats : conn -> Fox_tcp.Tcp.conn_stats

  val stats : tcp -> Fox_tcp.Tcp.stats

  (** The pull-style socket veneer over this TCP. *)
  module Sock : sig
    include Fox_proto.Socket.S

    val connect : tcp -> Ipv4_addr.t -> int -> t

    val listen : tcp -> int -> (t -> unit) -> unit

    val conn_stats : t -> Fox_tcp.Tcp.conn_stats
  end
end

(* Static neighbour table: the MAC of 10.x.y.z is 02:00:00:00:00:zz. *)
let mac_of addr =
  Mac.of_string
    (Printf.sprintf "02:00:00:00:00:%02x" (Ipv4_addr.to_int addr land 0xff))

let route = Route.local ~network:(Ipv4_addr.of_string "10.0.0.0") ~prefix:24

let eth_address next_hop =
  { Fox_eth.Eth.dest = mac_of next_hop; proto = Fox_eth.Frame.ethertype_ipv4 }

let eth_pattern = { Fox_eth.Eth.match_proto = Fox_eth.Frame.ethertype_ipv4 }

module Eth = Fox_eth.Eth.Standard

(* What the app calls: [Tcp] itself, or a shim over it. *)
module type APP_TCP = sig
  type tcp

  include
    Fox_proto.Protocol.PROTOCOL
      with type t = tcp
       and type incoming_message = Packet.t
       and type outgoing_message = Packet.t

  val address : Ipv4_addr.t -> int -> address

  val pattern : int -> address_pattern

  val conn_stats : connection -> Fox_tcp.Tcp.conn_stats
end

(* How calls are recorded: not at all, or as spans. *)
module type RECORD = sig
  val call : Spans.kind -> ('a -> 'b) -> 'a -> 'b
end

module Unrecorded = struct
  let call _ f x = f x
end

module Recorded = struct
  let call kind f x = Spans.span kind f x
end

(* The socket veneer over an app-facing TCP, with every call the app
   makes into it recorded by [W], and each served connection recorded as
   application work. *)
module Socket_over (T : APP_TCP) (W : RECORD) =
struct
  module Raw = Fox_proto.Socket.Make (T)

  type t = Raw.t

  let recv t = W.call Spans.Sock_read Raw.recv t

  let recv_string t = W.call Spans.Sock_read Raw.recv_string t

  let read_exactly t n = W.call Spans.Sock_read (Raw.read_exactly t) n

  let recv_exactly = read_exactly

  let read_line ?max t = W.call Spans.Sock_read (Raw.read_line ?max) t

  let write_all t s = W.call Spans.Sock_write (Raw.write_all t) s

  let send t p = W.call Spans.Sock_write (Raw.send t) p

  let send_string = write_all

  let close t = W.call Spans.Sock_ctl Raw.close t

  let abort t = W.call Spans.Sock_ctl Raw.abort t

  let peer_closed = Raw.peer_closed

  let set_read_deadline t d = W.call Spans.Sock_ctl (Raw.set_read_deadline t) d

  let connect tcp addr port =
    W.call Spans.Sock_ctl (Raw.connect tcp) (T.address addr port)

  let listen tcp port serve =
    ignore (Raw.listen tcp (T.pattern port) (W.call Spans.App serve))

  let conn_stats t = T.conn_stats (Raw.connection t)
end

module Plain (P : Fox_tcp.Tcp.PARAMS) : S = struct
  let traced = false

  let app f x = Unrecorded.call Spans.App f x

  let run main = Fox_sched.Scheduler.run main

  module Ip = Fox_ip.Ip.Make (Eth) (Fox_ip.Ip.Default_params)
  module Ip_aux = Fox_ip.Ip_aux.Make (Ip)
  module Tcp = Fox_tcp.Tcp.Make (Ip) (Ip_aux) (Fox_tcp.Congestion.Reno) (P)

  type tcp = Tcp.t

  type conn = Tcp.connection

  let host link i addr =
    let dev = Device.create (Link.port link i) in
    let eth = Eth.create dev ~mac:(mac_of addr) in
    Tcp.create
      (Ip.create eth
         { Ip.local_ip = addr; route; lower_address = eth_address;
           lower_pattern = eth_pattern })

  let connect t peer port handler =
    Tcp.connect t { Tcp.peer; port; local_port = None } handler

  let listen t port handler =
    ignore (Tcp.start_passive t { Tcp.local_port = port } handler)

  let allocate_send = Tcp.allocate_send

  let send = Tcp.send

  let close = Tcp.close

  let mss = Tcp.max_packet_size

  let conn_stats = Tcp.conn_stats

  let stats = Tcp.stats

  module Sock =
    Socket_over
      (struct
        include Tcp

        type tcp = Tcp.t

        type address_pattern = pattern

        let address peer port = { peer; port; local_port = None }

        let pattern local_port = { local_port }
      end)
      (Unrecorded)
end

(** The shims' span kinds at the TCP boundary: what sits above TCP
    decides what its upcalls are charged to. *)
module type ABOVE_TCP = sig
  val rx : Spans.kind
end

module Traced (P : Fox_tcp.Tcp.PARAMS) (Above : ABOVE_TCP) : sig
  include S

  (** Segments TCP handed to IP / IP handed to TCP, frames IP handed to
      Ethernet / Ethernet handed to IP. *)
  val segs_sent : int ref

  val segs_delivered : int ref

  val pkts_sent : int ref

  val pkts_delivered : int ref

  val on_segment : (Packet.t -> unit) ref
end = struct
  let traced = true

  let app f x = Recorded.call Spans.App f x

  let run main =
    Spans.start_round ();
    let stats = Fox_sched.Scheduler.run main in
    Spans.last := Some (Spans.end_round ());
    stats

  module Eth_s =
    Shim.Make
      (Eth)
      (struct
        let tx = Spans.Eth_tx
        let open_ = Spans.Eth_tx
        let close = Spans.Eth_tx
        let rx = Spans.Ip_rx
      end)

  module Ip = Fox_ip.Ip.Make (Eth_s) (Fox_ip.Ip.Default_params)
  module Ip_aux = Fox_ip.Ip_aux.Make (Ip)

  module Ip_s =
    Shim.Make
      (Ip)
      (struct
        let tx = Spans.Ip_tx
        let open_ = Spans.Ip_tx
        let close = Spans.Ip_tx
        let rx = Spans.Tcp_rx
      end)

  module Tcp =
    Fox_tcp.Tcp.Make (Ip_s) (Ip_s.Lift_aux (Ip_aux)) (Fox_tcp.Congestion.Reno)
      (P)

  module Tcp_s =
    Shim.Make
      (struct
        include Tcp

        type address_pattern = pattern
      end)
      (struct
        let tx = Spans.Tcp_tx
        let open_ = Spans.Tcp_open
        let close = Spans.Tcp_close
        let rx = Above.rx
      end)

  let segs_sent = Ip_s.sent
  let segs_delivered = Ip_s.delivered
  let pkts_sent = Eth_s.sent
  let pkts_delivered = Eth_s.delivered
  let on_segment = Ip_s.on_send

  type tcp = Tcp.t

  type conn = Tcp_s.connection

  let host link i addr =
    let dev = Device.create (Shim.port (Link.port link i)) in
    let eth = Eth.create dev ~mac:(mac_of addr) in
    Tcp.create
      (Ip.create eth
         { Ip.local_ip = addr; route; lower_address = eth_address;
           lower_pattern = eth_pattern })

  let connect t peer port handler =
    Tcp_s.connect t { Tcp.peer; port; local_port = None } handler

  let listen t port handler =
    ignore (Tcp_s.start_passive t { Tcp.local_port = port } handler)

  let allocate_send = Tcp_s.allocate_send

  let send = Tcp_s.send

  let close = Tcp_s.close

  let mss = Tcp_s.max_packet_size

  let conn_stats c = Tcp.conn_stats (Tcp_s.inner c)

  let stats = Tcp.stats

  module Sock =
    Socket_over
      (struct
        type tcp = Tcp.t

        include Tcp_s

        let address peer port = { Tcp.peer; port; local_port = None }

        let pattern port = { Tcp.local_port = port }

        let conn_stats c = Tcp.conn_stats (Tcp_s.inner c)
      end)
      (Recorded)
end
