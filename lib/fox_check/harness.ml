(** The scaffolding the checking harnesses (chaos, fuzz, mutate,
    scenarios, soak, load) share: the host builder, the checked-cell
    bracket ({!checked}), the engine adapter ({!Engine}) over the
    structured TCP and the monolithic baseline, and the per-algorithm
    engine tables. *)

open Fox_basis
module Bus = Fox_obs.Bus
module Ipv4_addr = Fox_ip.Ipv4_addr
module Status = Fox_proto.Status

(* ------------------------------------------------------------------ *)
(* Hosts                                                              *)
(* ------------------------------------------------------------------ *)

module Eth = Fox_eth.Eth.Standard
module Ip = Fox_ip.Ip.Make (Eth) (Fox_ip.Ip.Default_params)
module Ip_aux = Fox_ip.Ip_aux.Make (Ip)

(* Harness hosts live on 10.N.0.0/24.  There is no ARP in these stacks:
   an address maps to the MAC 02:00:00:00:NN:HH statically, N being the
   subnet and H the host byte. *)
let addr ~subnet host =
  Ipv4_addr.of_int ((10 lsl 24) lor (subnet lsl 16) lor host)

let mac_of addr =
  let a = Ipv4_addr.to_int addr in
  Fox_eth.Mac.of_string
    (Printf.sprintf "02:00:00:00:%02x:%02x"
       ((a lsr 16) land 0xff)
       (a land 0xff))

let route_of addr =
  Fox_ip.Route.local
    ~network:(Ipv4_addr.of_int (Ipv4_addr.to_int addr land 0xffffff00))
    ~prefix:24

let lower_address next_hop =
  { Fox_eth.Eth.dest = mac_of next_hop; proto = Fox_eth.Frame.ethertype_ipv4 }

let lower_pattern = { Fox_eth.Eth.match_proto = Fox_eth.Frame.ethertype_ipv4 }

(** [eth_of link index ~addr] is the Ethernet instance of a host on port
    [index] of [link]. *)
let eth_of link index ~addr =
  let dev = Fox_dev.Device.create (Fox_dev.Link.port link index) in
  Eth.create dev ~mac:(mac_of addr)

(** [make_host link index ~addr] is the IP instance of a host on port
    [index] of [link], on [addr]'s /24. *)
let make_host link index ~addr =
  Ip.create (eth_of link index ~addr)
    { Ip.local_ip = addr; route = route_of addr; lower_address; lower_pattern }

(** [client_server link ~subnet] builds the client (.1, port 0), then the
    server (.2, port 1); it returns both and the server's address. *)
let client_server link ~subnet =
  let client = make_host link 0 ~addr:(addr ~subnet 1) in
  let server_addr = addr ~subnet 2 in
  (client, make_host link 1 ~addr:server_addr, server_addr)

(** [sharded ~shards ~total world] runs [world ~shard ~indices] once per
    shard, each on its own domain (inline when [shards = 1]) and serving
    its slice of a [total]-connection fleet. *)
let sharded ~shards ~total world =
  Fox_shard.Shard.run ~shards (fun shard ->
      world ~shard ~indices:(Fox_shard.Shard.split ~total ~shards ~shard))

(* ------------------------------------------------------------------ *)
(* The checked-cell bracket                                           *)
(* ------------------------------------------------------------------ *)

type 'a checked = {
  value : 'a;  (** what the body returned *)
  faults : string list;
      (** invariant violations and fast-path divergences, in the order
          they were seen *)
  leaked : int;  (** live-packet delta across the body, calling domain *)
  flight : string list;
      (** the flight-recorder ring as the body left it; empty without
          [~flight] *)
}

(** [checked body] runs [body] as one checked cell.  Checked runs use
    the zero-copy datapath (checksum offload and the packet pool on) and,
    unless [~invariants:false], the TCB invariant checker.  The caller
    varies only:
    - [~differential]: shadow every header-prediction hit through the
      general receive path and report divergences as faults;
    - [~flight] (default on): reset and arm the flight recorder, and
      return its ring;
    - [~wheel]: the timer backend, when the harness picks one.

    Faults are collected under a mutex, because a sharded body runs the
    checker on several domains at once.  Every switch is restored and the
    packet pool emptied on every exit path. *)
let checked ?(invariants = true) ?(differential = false) ?(flight = true)
    ?wheel body =
  let faults = ref [] in
  let lock = Mutex.create () in
  let add msgs = Mutex.protect lock (fun () -> faults := !faults @ msgs) in
  if invariants then
    Tcb_invariants.install
      ~on_violation:(fun info msgs ->
        add
          (List.map
             (Printf.sprintf "t=%d after %s: %s" info.Fox_tcp.Check_hook.now
                (Fox_tcp.Tcb.action_name info.Fox_tcp.Check_hook.action))
             msgs))
      ();
  (* each switch is saved as it is set, and restored on the way out *)
  let undo = ref [] in
  let set r v =
    let saved = !r in
    undo := (fun () -> r := saved) :: !undo;
    r := v
  in
  set Packet.offload_enabled true;
  set Packet.pool_enabled true;
  Option.iter (set Fox_sched.Timer.use_wheel) wheel;
  if differential then begin
    set Fox_tcp.Receive.differential true;
    set Fox_tcp.Receive.on_mismatch (fun msg ->
        add [ "fast-path divergence: " ^ msg ])
  end;
  let bus_was_live = !Bus.live in
  if flight then begin
    Bus.reset ();
    Bus.enable ()
  end;
  let ring = ref [] in
  let value, leaked =
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun restore -> restore ()) !undo;
        Packet.pool_reset ();
        if flight then begin
          ring := Bus.dump ();
          Bus.reset ();
          if not bus_was_live then Bus.disable ()
        end;
        if invariants then Tcb_invariants.uninstall ())
      (fun () ->
        let live_before = Packet.live_packets () in
        let value = body () in
        (value, Packet.live_packets () - live_before))
  in
  { value; faults = !faults; leaked; flight = !ring }

(** [problem problems fmt ...] records one formatted problem, newest
    first. *)
let problem problems fmt =
  Printf.ksprintf (fun msg -> problems := msg :: !problems) fmt

(** [last ~cap lines] keeps the newest [cap] lines of a flight ring,
    noting how many older ones were elided. *)
let last ~cap lines =
  let n = List.length lines in
  if n <= cap then lines
  else
    Printf.sprintf "... %d earlier events elided ..." (n - cap)
    :: List.filteri (fun i _ -> i >= n - cap) lines

(* ------------------------------------------------------------------ *)
(* The engine adapter                                                 *)
(* ------------------------------------------------------------------ *)

(** The connection slice of a TCP both the structured engine
    ([Fox_tcp.Tcp.Make]) and the monolithic baseline satisfy. *)
module type CONN = sig
  type address = { peer : Ipv4_addr.t; port : int; local_port : int option }
  type pattern = { local_port : int }

  include
    Fox_proto.Socket.CONNECTOR
      with type address := address
       and type address_pattern := pattern
end

(** The buffered socket veneer over a TCP. *)
module Socket (T : CONN) = Fox_proto.Socket.Make (struct
  include T

  type address_pattern = pattern
end)

(** Bulk transfers over any TCP: a listener that collects what every
    accepted connection carries, and a one-shot send. *)
module Bulk (T : CONN) = struct
  let send_string conn str =
    let p = T.allocate_send conn (String.length str) in
    Packet.blit_from_string str 0 p 0 (String.length str);
    T.send conn p

  (** [dial ?on_status t ~peer ~port] opens a connection from an
      ephemeral port; whatever the peer sends is ignored. *)
  let dial ?(on_status = ignore) t ~peer ~port =
    T.connect t { peer; port; local_port = None } (fun _ ->
        (ignore, on_status))

  (** [sink t ~port on_accept] listens on [port] and hands each accepted
      connection's bytes to the receiver [on_accept ()] returns.  It
      closes its half when the peer closes theirs, so the client (the
      active closer) carries the TIME-WAIT load. *)
  let sink t ~port on_accept =
    ignore
      (T.start_passive t { local_port = port } (fun conn ->
           let receive = on_accept () in
           ( (fun packet ->
               receive (Packet.to_string packet);
               Packet.release packet),
             function Status.Remote_close -> T.close conn | _ -> () )))

  (** [push ?on_failed conn payload] sends [payload] as one packet and
      closes; a refused send is reported to [on_failed]. *)
  let push ?(on_failed = ignore) conn payload =
    (match send_string conn payload with
    | () -> ()
    | exception Fox_proto.Common.Send_failed msg -> on_failed msg);
    T.close conn
end

(** The engine adapter's argument: a TCP, its lower layer, a label and
    a one-line counter summary. *)
module type TCP = sig
  include CONN

  type lower

  val create : lower -> t
  val name : string
  val stats_line : t -> string
end

(** Either TCP behind one face: one listener, one client connection,
    string sends. *)
module type ENGINE = sig
  type lower
  type t
  type connection

  val name : string
  val create : lower -> t

  val listen :
    t -> port:int -> on_data:(Packet.t -> unit) ->
    on_status:(Status.t -> unit) -> unit

  val connect :
    t -> peer:Ipv4_addr.t -> port:int -> on_status:(Status.t -> unit) ->
    connection

  val send_string : connection -> string -> unit
  val close : connection -> unit
  val abort : connection -> unit
  val stats_line : t -> string
end

module Engine (T : TCP) : ENGINE with type lower = T.lower = struct
  include T
  include Bulk (T)

  let listen t ~port ~on_data ~on_status =
    ignore
      (start_passive t { local_port = port } (fun _ -> (on_data, on_status)))

  let connect t ~peer ~port ~on_status = dial ~on_status t ~peer ~port
end

(** The counter summaries the fuzz trace prints per engine. *)
let fox_stats_line (s : Fox_tcp.Tcp.stats) =
  Printf.sprintf "segs_in=%d segs_out=%d rsts=%d send_failures=%d conns=%d"
    s.Fox_tcp.Tcp.segs_in s.Fox_tcp.Tcp.segs_out s.Fox_tcp.Tcp.rsts_sent
    s.Fox_tcp.Tcp.wire_send_failures s.Fox_tcp.Tcp.active_conns

let baseline_stats_line (s : Fox_baseline.Tcp_monolithic.stats) =
  Printf.sprintf "segs_in=%d segs_out=%d rsts=%d rtx=%d"
    s.Fox_baseline.Tcp_monolithic.segs_in
    s.Fox_baseline.Tcp_monolithic.segs_out
    s.Fox_baseline.Tcp_monolithic.rsts_sent
    s.Fox_baseline.Tcp_monolithic.retransmissions

(* ------------------------------------------------------------------ *)
(* Congestion-control dispatch                                        *)
(* ------------------------------------------------------------------ *)

(** [per_cc make] is a harness's engine table: [make] applied to every
    congestion-control algorithm, in {!Fox_tcp.Congestion.all}'s order,
    keyed by the algorithm's name. *)
let per_cc make =
  List.map
    (fun ((module C : Fox_tcp.Congestion.S) as cc) -> (C.name, make cc))
    Fox_tcp.Congestion.all

(** [lookup ~who table cc] is [cc]'s entry; unknown names raise
    [Invalid_argument]. *)
let lookup ~who table cc =
  match List.assoc_opt cc table with
  | Some e -> e
  | None -> invalid_arg (who ^ ": unknown congestion control " ^ cc)
