(** The paper's evaluation runs.

    [Run(T).transfer] is Section 5's benchmark verbatim: "the receiver
    starts a timer, sends the designated sender a small packet specifying
    the amount of data desired, and stops the timer after all the
    specified data has been received.  The received data is discarded when
    it is received at the application level."  The TCP window is the
    library default 4096 bytes; the wire is the simulated isolated 10 Mb/s
    Ethernet; the optional {!Cost_model} puts the run on a virtual
    DECstation.

    [Run(T).round_trip] measures Table 1's second row: a small-message
    ping-pong over an established connection.

    Both are functors over the connection slice every TCP in the
    repository satisfies, so the structured TCP, each of its ablation
    variants and the monolithic baseline run the identical experiment
    code.  Each side of a run is a host and the TCP instance it drives:
    [Network.fox_tcp]/[baseline_tcp] on [Fox]/[Baseline] hosts, or a
    variant's own [create host.metered_ip] on [Bare] hosts. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler

type profile = (string * int * int) list
(** (component, total µs, updates) *)

type transfer_result = {
  bytes : int;
  elapsed_us : int;  (** virtual time, request sent → last byte received *)
  throughput_mbps : float;
  sender_segments : int;
  receiver_segments : int;
  retransmissions : int;
  sender_profile : profile;
  receiver_profile : profile;
  sender_busy_us : int;
  receiver_busy_us : int;
  cpu_s : float;  (** real CPU seconds this process spent in the run *)
  minor_collections : int;  (** real OCaml GC activity during the run *)
  major_collections : int;
  sched : Scheduler.stats;
}

type rtt_result = {
  samples : int;
  mean_rtt_us : int;
  min_rtt_us : int;
  max_rtt_us : int;
}

(** The connection slice of a TCP that both the structured engine
    ([Fox_tcp.Tcp.Make]) and the monolithic baseline satisfy (record
    declarations match structurally). *)
module type CONN = sig
  type address = {
    peer : Fox_ip.Ipv4_addr.t;
    port : int;
    local_port : int option;
  }
  type pattern = { local_port : int }

  include
    Fox_proto.Socket.CONNECTOR
      with type address := address
       and type address_pattern := pattern

  val max_packet_size : connection -> int
end

(** What the experiments read back besides the data: two counters. *)
module type TCP = sig
  include CONN

  val segments_sent : t -> int
  val conn_retransmissions : connection -> int
end

(** Any structured variant over the standard stack's metered IP. *)
module type STRUCTURED = sig
  include CONN

  val create : Stack.Metered_ip.t -> t
  val stats : t -> Fox_tcp.Tcp.stats
  val conn_stats : connection -> Fox_tcp.Tcp.conn_stats
end

module Structured (T : STRUCTURED) : TCP with type t = T.t = struct
  include T

  let segments_sent t = (stats t).Fox_tcp.Tcp.segs_out

  let conn_retransmissions conn =
    (conn_stats conn).Fox_tcp.Tcp.retransmissions
end

module Run (T : TCP) = struct
  let listen t ~port handler =
    ignore
      (T.start_passive t { T.local_port = port } (fun conn ->
           (handler conn, ignore)))

  let connect t ~peer ~port ~handler =
    T.connect t { T.peer; port; local_port = None } (fun _ -> (handler, ignore))

  (* Sender side: accept a connection, read the 8-byte request
     (magic ++ count), stream that many bytes back in MSS-sized packets —
     synthesised in place, one copy into the packet, as the paper counts.
     Byte [k] of the stream is [k mod 256], blitted from a pattern long
     enough for any starting offset. *)
  let install_sender tcp ~port ~server_conn =
    listen tcp ~port (fun conn ->
        server_conn := Some conn;
        fun request ->
          if Packet.length request >= 8 then begin
            let wanted = Packet.get_u32 request 4 in
            Packet.release request;
            Scheduler.fork (fun () ->
                let mss = T.max_packet_size conn in
                let pattern =
                  Bytes.init (mss + 256) (fun k -> Char.chr (k land 0xff))
                in
                let sent = ref 0 in
                while !sent < wanted do
                  let n = min mss (wanted - !sent) in
                  let p = T.allocate_send conn n in
                  Bytes.blit pattern (!sent land 0xff) (Packet.buffer p)
                    (Packet.offset p) n;
                  T.send conn p;
                  sent := !sent + n
                done)
          end)

  (* [?during] forks an observer thread inside the run, handing it a
     "transfer finished?" predicate — the [foxnet stat] sampler loops on
     [Scheduler.sleep] until the predicate holds, photographing the live
     TCBs in virtual time.  [?app_us] makes the receiving application
     slow: each delivery charges that much CPU to the receiver inside the
     data upcall, i.e. inside the engine's drain loop (ablation D). *)
  let transfer ?during ?(app_us = 0)
      ~sender:((sender : Network.host), sender_tcp)
      ~receiver:((receiver : Network.host), receiver_tcp) ~bytes () =
    let port = 5001 in
    let server_conn = ref None in
    install_sender sender_tcp ~port ~server_conn;
    let received = ref 0 in
    let t0 = ref 0 and t1 = ref 0 in
    let gc0 = Gc.quick_stat () in
    let cpu0 = Sys.time () in
    let sched =
      Scheduler.run (fun () ->
          (match during with
          | Some observer ->
            Scheduler.fork (fun () -> observer (fun () -> !received >= bytes))
          | None -> ());
          let conn =
            connect receiver_tcp ~peer:sender.Network.addr ~port
              ~handler:(fun packet ->
                if app_us > 0 then
                  Fox_sched.Cpu.charge receiver.Network.cpu "application"
                    app_us;
                (* data is discarded at the application level; give the
                   buffer back to the pool *)
                received := !received + Packet.length packet;
                Packet.release packet;
                if !received >= bytes then t1 := Scheduler.now ())
          in
          t0 := Scheduler.now ();
          let request = T.allocate_send conn 8 in
          Packet.set_u32 request 0 0xF0C5F0C5;
          Packet.set_u32 request 4 bytes;
          T.send conn request)
    in
    let cpu_s = Sys.time () -. cpu0 in
    let gc1 = Gc.quick_stat () in
    if !received < bytes then
      failwith
        (Printf.sprintf "transfer incomplete: %d of %d bytes" !received bytes);
    let elapsed_us = !t1 - !t0 in
    {
      bytes;
      elapsed_us;
      throughput_mbps = float_of_int (bytes * 8) /. float_of_int elapsed_us;
      sender_segments = T.segments_sent sender_tcp;
      receiver_segments = T.segments_sent receiver_tcp;
      retransmissions =
        (match !server_conn with
        | Some conn -> T.conn_retransmissions conn
        | None -> 0);
      sender_profile = Counters.dump sender.Network.counters;
      receiver_profile = Counters.dump receiver.Network.counters;
      sender_busy_us = Counters.grand_total sender.Network.counters;
      receiver_busy_us = Counters.grand_total receiver.Network.counters;
      cpu_s;
      minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      sched;
    }

  (* Table 1, row 2: echo a small message back and forth over one
     established connection and time each round. *)
  let round_trip ~client:(_, client_tcp)
      ~server:((server : Network.host), server_tcp) ?(payload = 64)
      ?(rounds = 20) () =
    let port = 5007 in
    listen server_tcp ~port (fun conn packet ->
        let reply = T.allocate_send conn (Packet.length packet) in
        Packet.blit packet 0 (Packet.buffer reply) (Packet.offset reply)
          (Packet.length packet);
        Packet.release packet;
        T.send conn reply);
    let rtts = ref [] in
    let reply_mb = Fox_sched.Cond.create () in
    let _ =
      Scheduler.run (fun () ->
          let conn =
            connect client_tcp ~peer:server.Network.addr ~port
              ~handler:(fun _reply -> Fox_sched.Cond.signal reply_mb ())
          in
          for _ = 1 to rounds do
            let sent_at = Scheduler.now () in
            let p = T.allocate_send conn payload in
            Packet.fill p 0x5A;
            T.send conn p;
            Fox_sched.Cond.wait reply_mb;
            rtts := (Scheduler.now () - sent_at) :: !rtts
          done)
    in
    let rtts = !rtts in
    let n = List.length rtts in
    {
      samples = n;
      mean_rtt_us = List.fold_left ( + ) 0 rtts / max 1 n;
      min_rtt_us = List.fold_left min max_int rtts;
      max_rtt_us = List.fold_left max 0 rtts;
    }
end

module Fox_run = Run (Structured (Stack.Tcp))

module Baseline_run = Run (struct
  include Stack.Baseline_tcp

  let segments_sent t = (stats t).Fox_baseline.Tcp_monolithic.segs_out
  let conn_retransmissions = retransmissions_of
end)

(** [variant_transfer (module T) ?cost ?netem ?app_us ~bytes ()] is
    {!Run.transfer} over the structured variant [T] on a [Bare] pair,
    each host running its own instance of [T]. *)
let variant_transfer (module T : STRUCTURED) ?cost ?netem ?app_us ~bytes () =
  let module R = Run (Structured (T)) in
  let _, a, b = Network.pair ~engine:Network.Bare ?cost ?netem () in
  R.transfer ?app_us
    ~sender:(a, T.create a.Network.metered_ip)
    ~receiver:(b, T.create b.Network.metered_ip)
    ~bytes ()

(** [table1 ?bytes ()] reproduces Table 1: throughput and round-trip for
    both engines under their respective DECstation cost models. *)
let table1 ?(bytes = 1_000_000) () =
  let fox () =
    let _, a, b = Network.pair ~engine:Network.Fox ~cost:Cost_model.fox () in
    ((a, Network.fox_tcp a), (b, Network.fox_tcp b))
  in
  let baseline () =
    let _, a, b =
      Network.pair ~engine:Network.Baseline ~cost:Cost_model.xkernel ()
    in
    ((a, Network.baseline_tcp a), (b, Network.baseline_tcp b))
  in
  let fox_tp =
    let sender, receiver = fox () in
    Fox_run.transfer ~sender ~receiver ~bytes ()
  in
  let fox_rtt =
    let client, server = fox () in
    Fox_run.round_trip ~client ~server ()
  in
  let base_tp =
    let sender, receiver = baseline () in
    Baseline_run.transfer ~sender ~receiver ~bytes ()
  in
  let base_rtt =
    let client, server = baseline () in
    Baseline_run.round_trip ~client ~server ()
  in
  (fox_tp, fox_rtt, base_tp, base_rtt)

(** [table2 ?bytes ()] reproduces Table 2: the per-component execution
    profile of the fox transfer, for sender and receiver.  Percentages are
    of each host's {e accounted} (busy) time — the paper's profile also
    sums to ≈100% because its counters covered nearly the whole run. *)
let table2 ?(bytes = 1_000_000) () =
  let _, a, b = Network.pair ~engine:Network.Fox ~cost:Cost_model.fox () in
  let result =
    Fox_run.transfer ~sender:(a, Network.fox_tcp a)
      ~receiver:(b, Network.fox_tcp b) ~bytes ()
  in
  let percent profile busy =
    List.map
      (fun (name, us, updates) ->
        (name, 100.0 *. float_of_int us /. float_of_int (max 1 busy), updates))
      profile
  in
  ( result,
    percent result.sender_profile result.sender_busy_us,
    percent result.receiver_profile result.receiver_busy_us )

(** [print_table1 ()] runs {!table1} and prints it in the paper's format,
    the paper's figures alongside. *)
let print_table1 () =
  Printf.printf
    "1 MB one-way transfer, 4096-byte window, simulated isolated 10 Mb/s\n\
     Ethernet, DECstation cost models (see lib/fox_stack/cost_model.ml).\n\n";
  let fox_tp, fox_rtt, base_tp, base_rtt = table1 () in
  Printf.printf "%-22s %10s %10s %8s %22s\n" "" "Fox Net" "x-kernel" "ratio"
    "(paper: fox/xk/ratio)";
  Printf.printf "%-22s %10.2f %10.2f %8.2f %22s\n" "Throughput (Mb/s)"
    fox_tp.throughput_mbps base_tp.throughput_mbps
    (fox_tp.throughput_mbps /. base_tp.throughput_mbps)
    "(0.6 / 2.5 / 0.24)";
  Printf.printf "%-22s %10.1f %10.1f %8.1f %22s\n" "Round-Trip (ms)"
    (float_of_int fox_rtt.mean_rtt_us /. 1000.)
    (float_of_int base_rtt.mean_rtt_us /. 1000.)
    (float_of_int fox_rtt.mean_rtt_us /. float_of_int base_rtt.mean_rtt_us)
    "(36 / 4.9 / 9.4)";
  Printf.printf
    "\nfox: %d sender segments, %d retransmissions, %.2f s elapsed (virtual)\n"
    fox_tp.sender_segments fox_tp.retransmissions
    (float_of_int fox_tp.elapsed_us /. 1e6);
  Printf.printf "x-kernel-like: %d sender segments, %d retransmissions, %.2f s\n"
    base_tp.sender_segments base_tp.retransmissions
    (float_of_int base_tp.elapsed_us /. 1e6)

(* The paper's Table 2, sender and receiver percentages. *)
let paper_table2 =
  [
    ("TCP", (29.0, 27.5));
    ("IP", (7.8, 9.7));
    ("eth, Mach interf.", (11.2, 11.9));
    ("copy", (10.5, 6.3));
    ("checksum", (5.1, 5.6));
    ("Mach send", (7.5, 6.0));
    ("packet wait", (15.8, 9.3));
    ("g. c.", (3.4, 5.0));
    ("misc.", (4.7, 7.3));
    ("counters (est.)", (5.2, 5.4));
  ]

(** [print_table2 ()] runs {!table2} and prints it beside the paper's
    profile. *)
let print_table2 () =
  let result, sender, receiver = table2 () in
  Printf.printf
    "1 MB fox transfer under the cost model (%.2f s virtual); percentages\n\
     of each host's accounted busy time, as in the paper.\n\n"
    (float_of_int result.elapsed_us /. 1e6);
  Printf.printf "%-22s %8s %9s %9s %9s\n" "component" "Sender" "Receiver"
    "(paper S" "paper R)";
  let find profile name =
    match List.find_opt (fun (n, _, _) -> n = name) profile with
    | Some (_, pct, _) -> pct
    | None -> 0.0
  in
  List.iter
    (fun (name, (ps, pr)) ->
      Printf.printf "%-22s %8.1f %9.1f %9.1f %9.1f\n" name (find sender name)
        (find receiver name) ps pr)
    paper_table2;
  let total p = List.fold_left (fun acc (_, pct, _) -> acc +. pct) 0.0 p in
  Printf.printf "%-22s %8.1f %9.1f %9.1f %9.1f\n" "total" (total sender)
    (total receiver) 100.2 94.0
