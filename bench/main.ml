(* The benchmark harness: regenerates every measurement in the paper's
   evaluation (Section 5).

   - Bechamel microbenchmarks measure the real OCaml code on this machine
     (the paper's inline numbers: checksum and copy rates, scheduler and
     timer costs, counter overhead), one Test.make per measurement,
     grouped per table/figure.
   - The Table 1 and Table 2 sections run the paper's transfer benchmark
     on the simulated 10 Mb/s Ethernet under the DECstation cost models
     and print rows in the paper's format, with the paper's numbers
     alongside.
   - The GC section reproduces the "runs of over 5 MB" observation.
   - The ablation section quantifies the design choices DESIGN.md calls
     out: quasi-synchronous engine vs monolithic baseline (wall-clock CPU
     of the real implementations), checksum configurations, and delayed
     acknowledgements. *)

open Bechamel
open Toolkit
open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Experiments = Fox_stack.Experiments
module Network = Fox_stack.Network
module Stack = Fox_stack.Stack
module Cost_model = Fox_stack.Cost_model
module Ipv4_addr = Fox_ip.Ipv4_addr

let line = String.make 78 '-'

let section name = Printf.printf "\n%s\n== %s\n%s\n" line name line

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                           *)
(* ------------------------------------------------------------------ *)

let kb_buffer = Bytes.init 2048 (fun i -> Char.chr (i * 37 land 0xff))

let checksum_tests =
  Test.make_grouped ~name:"inline1-checksum"
    [
      Test.make ~name:"optimized-1KB-aligned"
        (Staged.stage (fun () -> Checksum.checksum ~alg:`Optimized kb_buffer 0 1024));
      Test.make ~name:"optimized-1KB-offset2"
        (Staged.stage (fun () -> Checksum.checksum ~alg:`Optimized kb_buffer 2 1024));
      (* One full bulk segment, at the offset a payload sits at behind the
         headers: the per-segment cost of one checksum pass. *)
      Test.make ~name:"optimized-1464B-offset2"
        (Staged.stage (fun () -> Checksum.checksum ~alg:`Optimized kb_buffer 2 1464));
      Test.make ~name:"basic-1KB"
        (Staged.stage (fun () -> Checksum.checksum ~alg:`Basic kb_buffer 0 1024));
      Test.make ~name:"reference-1KB"
        (Staged.stage (fun () -> Checksum.reference kb_buffer 0 1024));
    ]

let copy_dst = Bytes.create 2048

let copy_tests =
  Test.make_grouped ~name:"inline2-copy"
    (List.map
       (fun (name, impl) ->
         Test.make ~name:(name ^ "-1KB")
           (Staged.stage (fun () -> Copy.copy impl kb_buffer 0 copy_dst 0 1024)))
       Copy.all)

(* The paper's 30 us "create a thread, terminate the current thread, and
   switch to the new thread", amortised over 1000 operations in one
   scheduler run; and the 1.2 us empty call for scale. *)
let sched_tests =
  Test.make_grouped ~name:"inline3-scheduler"
    [
      Test.make ~name:"1000x-fork+switch+exit"
        (Staged.stage (fun () ->
             Scheduler.run (fun () ->
                 for _ = 1 to 1000 do
                   Scheduler.fork (fun () -> ());
                   Scheduler.yield ()
                 done)));
      Test.make ~name:"1000x-timer-start+clear"
        (Staged.stage (fun () ->
             Scheduler.run (fun () ->
                 for _ = 1 to 1000 do
                   Fox_sched.Timer.clear (Fox_sched.Timer.start ignore 50)
                 done)));
      (let f = Sys.opaque_identity (fun () -> ()) in
       Test.make ~name:"empty-call" (Staged.stage (fun () -> f ())));
    ]

let counter_set = Counters.create ()

let counter_tests =
  Test.make_grouped ~name:"inline4-counters"
    [
      Test.make ~name:"add"
        (Staged.stage (fun () -> Counters.add counter_set "bench" 10));
    ]

let codec_packet = Packet.of_string ~headroom:64 (String.make 512 'p')

let codec_tests =
  let tcp_hdr =
    {
      (Fox_tcp.Tcp_header.basic ~src_port:1 ~dst_port:2) with
      Fox_tcp.Tcp_header.seq = Fox_tcp.Seq.of_int 12345;
      ack_flag = true;
      window = 4096;
    }
  in
  let pseudo =
    Checksum.pseudo_ipv4 ~src:0x0A000001 ~dst:0x0A000002 ~proto:6 ~len:532
  in
  Test.make_grouped ~name:"codecs"
    [
      Test.make ~name:"tcp-header-encode+decode-512B"
        (Staged.stage (fun () ->
             Fox_tcp.Tcp_header.encode ~pseudo:(Some pseudo) tcp_hdr codec_packet;
             match
               Fox_tcp.Tcp_header.decode ~pseudo:(Some pseudo) codec_packet
             with
             | Ok _ -> ()
             | Error _ -> assert false));
      Test.make ~name:"crc32-1KB"
        (Staged.stage (fun () -> ignore (Crc32.digest kb_buffer 0 1024)));
    ]

let container_tests =
  Test.make_grouped ~name:"containers"
    [
      Test.make ~name:"fifo-add+next"
        (Staged.stage (fun () ->
             match Fifo.next (Fifo.add 1 Fifo.empty) with
             | Some _ -> ()
             | None -> assert false));
      Test.make ~name:"heap-add+pop-x16"
        (Staged.stage (fun () ->
             let h = Heap.create ~cmp:Int.compare in
             for i = 15 downto 0 do
               Heap.add h i
             done;
             for _ = 0 to 15 do
               ignore (Heap.pop_min h)
             done));
      Test.make ~name:"packet-push+pull-header"
        (Staged.stage (fun () ->
             Packet.push_header codec_packet 20;
             Packet.pull_header codec_packet 20));
    ]

(* run one bechamel group and return (name, nanoseconds-per-run) rows *)
let run_group test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (ns :: _) -> (name, ns) :: acc
      | _ -> acc)
    results []
  |> List.sort compare

let print_group ?(per = 1.0) ?(unit_name = "ns/op") test =
  List.iter
    (fun (name, ns) ->
      Printf.printf "  %-45s %12.2f %s\n" name (ns /. per) unit_name)
    (run_group test)

let microbenchmarks () =
  section "Microbenchmarks (real wall-clock of the OCaml code, Bechamel)";
  Printf.printf
    "Paper reference points (DECstation 5000/125): optimised checksum 343\n\
     us/KB vs x-kernel 375 us/KB; safe copy 300 us/KB vs bcopy 61 us/KB;\n\
     thread create+switch+exit 30 us vs empty call 1.2 us; counter pair 15 us.\n\n";
  Printf.printf "[inline-1] Internet checksum, 1 KB and one 1,464-byte segment:\n";
  print_group ~per:1000.0 ~unit_name:"us/call" checksum_tests;
  Printf.printf "\n[inline-2] copy, 1 KB:\n";
  print_group ~per:1000.0 ~unit_name:"us/KB" copy_tests;
  Printf.printf
    "\n[inline-3] scheduler and timers (divide x1000 rows by 1000 for per-op):\n";
  print_group sched_tests;
  Printf.printf "\n[inline-4] profiling counters:\n";
  print_group counter_tests;
  Printf.printf "\nheader codecs and containers (substrate costs):\n";
  print_group codec_tests;
  print_group container_tests

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2                                                     *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: Speed Comparison of TCP Implementations";
  Experiments.print_table1 ()

let table2 () =
  section "Table 2: Execution Profile (Percent of Total Time)";
  Experiments.print_table2 ()

(* ------------------------------------------------------------------ *)
(* GC behaviour (inline-5)                                            *)
(* ------------------------------------------------------------------ *)

(* Section 5's transfer over the standard structured TCP. *)
let fox_transfer = Experiments.variant_transfer (module Stack.Tcp)

let gc_experiment () =
  section "GC behaviour: short vs long runs (paper: >5 MB runs no slower)";
  let run bytes = fox_transfer ~cost:Cost_model.fox ~bytes () in
  let small = run 1_000_000 in
  let large = run 8_000_000 in
  let open Experiments in
  Printf.printf "%-12s %12s %12s %10s %10s\n" "transfer" "Mb/s (virt)"
    "elapsed s" "minor gcs" "major gcs";
  let row name (r : transfer_result) =
    Printf.printf "%-12s %12.2f %12.2f %10d %10d\n" name r.throughput_mbps
      (float_of_int r.elapsed_us /. 1e6)
      r.minor_collections r.major_collections
  in
  row "1 MB" small;
  row "8 MB" large;
  Printf.printf
    "\nlong/short throughput ratio: %.3f (paper observes >= 1.0: startup\n\
     amortisation more than compensates for major collections)\n"
    (large.throughput_mbps /. small.throughput_mbps)

(* ------------------------------------------------------------------ *)
(* Ablations                                                          *)
(* ------------------------------------------------------------------ *)

let ms us = float_of_int us /. 1000.

let ablation_control_structure () =
  section "Ablation A: control structure (quasi-synchronous vs direct calls)";
  Printf.printf
    "Real CPU seconds this machine spends simulating a 4 MB transfer on a\n\
     gigabit wire (no cost model): measures the engines' own bookkeeping.\n\n";
  let bytes = 4_000_000 and netem = Fox_dev.Netem.gigabit in
  let row label (r : Experiments.transfer_result) =
    Printf.printf "  %-28s %8.3f s CPU   (virtual: %8.1f ms)\n" label
      r.Experiments.cpu_s (ms r.Experiments.elapsed_us);
    r.Experiments.cpu_s
  in
  let fox = row "structured (to_do queue)" (fox_transfer ~netem ~bytes ()) in
  let base =
    let _, a, b = Network.pair ~engine:Network.Baseline ~netem () in
    row "monolithic (direct calls)"
      (Experiments.Baseline_run.transfer
         ~sender:(a, Network.baseline_tcp a)
         ~receiver:(b, Network.baseline_tcp b)
         ~bytes ())
  in
  Printf.printf
    "\n  structured/monolithic CPU ratio: %.2f (the engine-side price of the\n\
     paper's deterministic quasi-synchronous design, on this machine)\n"
    (fox /. base)

let ablation_checksums () =
  section "Ablation B: checksum configuration (real CPU cost of the stack)";
  Printf.printf
    "2 MB transfer on a gigabit wire; the checksum is the main data-touching\n\
     operation left once copies are minimised (cf. Figure 10).\n\n";
  List.iter
    (fun (label, variant) ->
      let r =
        Experiments.variant_transfer variant ~netem:Fox_dev.Netem.gigabit
          ~bytes:2_000_000 ()
      in
      Printf.printf "  %-38s %8.3f s CPU\n" label r.Experiments.cpu_s)
    [
      ( "optimized checksum (Figure 10)",
        (module Stack.Tcp : Experiments.STRUCTURED) );
      ("basic checksum (x-kernel loop)", (module Stack.Tcp_basic_checksum));
      ( "checksums off (Special_Tcp, trust CRC)",
        (module Stack.Tcp_no_checksums) );
    ]

let ablation_delayed_ack () =
  section "Ablation C: delayed acknowledgements";
  Printf.printf
    "1 MB transfer on the 10 Mb/s wire (no cost model): delayed ACKs halve\n\
     the reverse traffic at the price of occasional 200 ms holdoffs.\n\n";
  List.iter
    (fun (label, variant) ->
      let r = Experiments.variant_transfer variant ~bytes:1_000_000 () in
      Printf.printf "  %-26s elapsed %8.1f ms   receiver segments %6d\n" label
        (ms r.Experiments.elapsed_us) r.Experiments.receiver_segments)
    [
      ("delayed ACK (200 ms)", (module Stack.Tcp : Experiments.STRUCTURED));
      ("immediate ACK", (module Stack.Tcp_no_delayed_ack));
    ]

(* The window is a functor parameter (Figure 4), so the sweep is five
   separate functor applications of the same TCP — a figure the paper
   implies with its "window size used by many implementations" remark. *)
let window_sweep () =
  section "Extension: throughput vs. window size (DECstation cost model)";
  Printf.printf
    "500 KB fox transfer; the window bounds data in flight, so throughput\n\
     climbs until processing, not the window, is the bottleneck.\n\n";
  List.iter
    (fun (window, variant, note) ->
      let r =
        Experiments.variant_transfer variant ~cost:Cost_model.fox
          ~bytes:500_000 ()
      in
      let mbps = r.Experiments.throughput_mbps in
      Printf.printf "  window %6d B   %8.3f Mb/s   %s%s\n" window mbps
        (String.make (int_of_float (mbps *. 40.)) '#')
        note)
    [
      (1024, (module Stack.Tcp_w1024 : Experiments.STRUCTURED), "");
      (2048, (module Stack.Tcp_w2048), "");
      (4096, (module Stack.Tcp), "   (paper's setting)");
      (8192, (module Stack.Tcp_w8192), "");
      (16384, (module Stack.Tcp_w16384), "");
    ]

(* The receiving application is slow: each delivery charges [app_us] of
   CPU inside the User_data upcall — i.e. inside the drain loop.  With
   the FIFO queue the outgoing ACK (queued after the User_data action)
   waits behind that processing; the priority queue sends it first, so
   the sender's window opens sooner. *)
let ablation_priority () =
  section "Ablation D: priority to_do queue (the paper's suggested refinement)";
  Printf.printf
    "\"By replacing the current FIFO with a priority queue, we could specify\n\
     that particular actions, e.g., actions which affect the packet latency,\n\
     be executed with higher priority.\"  500 KB to a slow application that\n\
     burns 4 ms of CPU per delivered segment, inside the upcall: with the\n\
     FIFO the ACK queued behind each User_data action waits for the app.\n\n";
  List.iter
    (fun (label, variant) ->
      let r =
        Experiments.variant_transfer variant ~app_us:4_000 ~bytes:500_000 ()
      in
      Printf.printf "  %-26s elapsed %8.2f s (virtual)\n" label
        (float_of_int r.Experiments.elapsed_us /. 1e6))
    [
      ("FIFO to_do queue", (module Stack.Tcp : Experiments.STRUCTURED));
      ("priority to_do queue", (module Stack.Tcp_prioritized));
    ]

(* ------------------------------------------------------------------ *)
(* Fast-path ablation: header prediction × fused checksum × buffer pool *)
(* ------------------------------------------------------------------ *)

type fastpath_row = {
  fp_prediction : bool;
  fp_fused : bool;
  fp_pool : bool;
  fp_touch_per_byte : float;
      (** payload bytes traversed (copy + checksum + fused passes) per
          byte transferred — the "touch the data once" meter *)
  fp_minor_words_per_seg : float;
  fp_segs : int;
}

let fp_label r =
  Printf.sprintf "%s %s %s"
    (if r.fp_prediction then "pred" else "----")
    (if r.fp_fused then "fused" else "-----")
    (if r.fp_pool then "pool" else "----")

(* One 2 MB transfer on a gigabit wire under the given switch settings.
   Data-touch passes are metered globally (Packet.bytes_copied,
   Checksum.bytes_summed, Copy.bytes_fused), so the run brackets them;
   segments are the sender instance's segs_out. *)
let fastpath_config ~prediction ~fused ~pool =
  let bytes = 2_000_000 in
  Packet.offload_enabled := fused;
  Packet.pool_enabled := pool;
  Packet.pool_reset ();
  Fun.protect
    ~finally:(fun () ->
      Packet.offload_enabled := false;
      Packet.pool_enabled := false;
      Packet.pool_reset ())
    (fun () ->
      let c0 = !Packet.bytes_copied
      and s0 = !Checksum.bytes_summed
      and f0 = !Copy.bytes_fused in
      let g0 = Gc.minor_words () in
      let variant =
        if prediction then (module Stack.Tcp : Experiments.STRUCTURED)
        else (module Stack.Tcp_no_prediction)
      in
      let r =
        Experiments.variant_transfer variant ~netem:Fox_dev.Netem.gigabit
          ~bytes ()
      in
      let segs = r.Experiments.sender_segments in
      let touched =
        !Packet.bytes_copied - c0 + (!Checksum.bytes_summed - s0)
        + (!Copy.bytes_fused - f0)
      in
      {
        fp_prediction = prediction;
        fp_fused = fused;
        fp_pool = pool;
        fp_touch_per_byte = float_of_int touched /. float_of_int bytes;
        fp_minor_words_per_seg = (Gc.minor_words () -. g0) /. float_of_int segs;
        fp_segs = segs;
      })

let ablation_fastpath () =
  section "Ablation E: zero-copy fast path (prediction x fusion x pooling)";
  Printf.printf
    "2 MB transfer on a gigabit wire (no cost model).  touches/byte counts\n\
     every metered traversal of payload bytes (copies, checksum passes,\n\
     fused copy-and-checksum passes) per byte delivered; words/seg is minor\n\
     heap allocation per sender segment.\n\n";
  let rows =
    List.concat_map
      (fun prediction ->
        List.concat_map
          (fun fused ->
            List.map
              (fun pool -> fastpath_config ~prediction ~fused ~pool)
              [ false; true ])
          [ false; true ])
      [ false; true ]
  in
  Printf.printf "  %-18s %14s %14s %8s\n" "configuration" "touches/byte"
    "words/seg" "segs";
  List.iter
    (fun r ->
      Printf.printf "  %-18s %14.3f %14.1f %8d\n" (fp_label r)
        r.fp_touch_per_byte r.fp_minor_words_per_seg r.fp_segs)
    rows;
  let find p f po =
    List.find
      (fun r -> r.fp_prediction = p && r.fp_fused = f && r.fp_pool = po)
      rows
  in
  (* headline deltas: fusion's data-touch saving and pooling's allocation
     saving, each measured with the other two switches on *)
  let fusion_reduction =
    let off = find true false true and on = find true true true in
    100.0 *. (1.0 -. (on.fp_touch_per_byte /. off.fp_touch_per_byte))
  in
  let pool_alloc_reduction =
    let off = find true true false and on = find true true true in
    100.0 *. (1.0 -. (on.fp_minor_words_per_seg /. off.fp_minor_words_per_seg))
  in
  Printf.printf
    "\n  fused copy-and-checksum: %.1f %% fewer payload-byte touches\n\
    \  buffer pooling:          %.1f %% less minor allocation per segment\n"
    fusion_reduction pool_alloc_reduction;
  let row r =
    Json.(
      Obj
        [ ("prediction", Bool r.fp_prediction); ("fused", Bool r.fp_fused);
          ("pool", Bool r.fp_pool);
          ("touches_per_byte", Float (4, r.fp_touch_per_byte));
          ("minor_words_per_segment", Float (1, r.fp_minor_words_per_seg));
          ("segments", Int r.fp_segs) ])
  in
  Json.write "BENCH_pr4.json"
    Json.(
      Obj
        [ ("bench", String "pr4_zero_copy_fastpath"); ("bytes", Int 2_000_000);
          ("rows", List (List.map row rows));
          ("fusion_touch_reduction_percent", Float (2, fusion_reduction));
          ("pool_alloc_reduction_percent", Float (2, pool_alloc_reduction)) ])

(* ------------------------------------------------------------------ *)
(* Standing end-to-end headline (BENCH_table1.json)                   *)
(* ------------------------------------------------------------------ *)

(* One comparable Mb/s number per PR: the paper's Table 1 transfer (1 MB,
   4096-byte window, 10 Mb/s Ethernet, DECstation cost model) next to a
   modern transfer (1 GB on a gigabit wire, no cost model) with the
   zero-copy fast path, the timing wheel and the buffer pool all on. *)
let modern_transfer ~bytes =
  Packet.offload_enabled := true;
  Packet.pool_enabled := true;
  Packet.pool_reset ();
  let saved_wheel = !Fox_sched.Timer.use_wheel in
  Fox_sched.Timer.use_wheel := true;
  Fun.protect
    ~finally:(fun () ->
      Packet.offload_enabled := false;
      Packet.pool_enabled := false;
      Packet.pool_reset ();
      Fox_sched.Timer.use_wheel := saved_wheel)
    (fun () -> fox_transfer ~netem:Fox_dev.Netem.gigabit ~bytes ())

let table1_headline () =
  section "Standing headline: paper Table 1 transfer + modern transfer";
  let fox_tp, _, base_tp, _ = Experiments.table1 () in
  let open Experiments in
  Printf.printf
    "paper (1 MB, 10 Mb/s Ethernet, cost model): %.2f Mb/s over %.2f s\n\
     virtual (%d segments, %d retransmissions); x-kernel-like baseline\n\
     %.2f Mb/s\n"
    fox_tp.throughput_mbps
    (float_of_int fox_tp.elapsed_us /. 1e6)
    fox_tp.sender_segments fox_tp.retransmissions base_tp.throughput_mbps;
  let modern = modern_transfer ~bytes:1_000_000_000 in
  Printf.printf
    "modern (1 GB, gigabit wire, fastpath+wheel+pool): %.1f Mb/s over\n\
     %.3f s virtual (%d segments, %.1f s wall)\n"
    modern.throughput_mbps
    (float_of_int modern.elapsed_us /. 1e6)
    modern.sender_segments modern.cpu_s;
  let run ~mbps r =
    Json.
      [ ("mbps", Float (mbps, r.throughput_mbps));
        ("elapsed_virtual_s", Float (3, float_of_int r.elapsed_us /. 1e6));
        ("segments", Int r.sender_segments) ]
  in
  Json.write "BENCH_table1.json"
    Json.(
      Obj
        [ ("bench", String "table1_headline");
          ( "paper_1mb",
            Obj
              (run ~mbps:3 fox_tp
              @ [ ("retransmissions", Int fox_tp.retransmissions);
                  ("baseline_mbps", Float (3, base_tp.throughput_mbps)) ]) );
          ( "modern_1gb",
            Obj (run ~mbps:1 modern @ [ ("wall_s", Float (1, modern.cpu_s)) ])
          ) ])

(* ------------------------------------------------------------------ *)
(* Overload survival: timer backends under load and the flood soak    *)
(* ------------------------------------------------------------------ *)

let time_cpu f =
  let w0 = Sys.time () in
  f ();
  Sys.time () -. w0

(* One timer backend under the two loads a busy TCP puts on it: churn
   (every segment restarts the retransmission timer: start + clear, with
   a standing population of armed timers behind it) and mass expiry
   (every parked TIME-WAIT and delayed-ACK deadline actually firing).
   Under the Figure 11 backend each armed timer is its own sleep-heap
   entry, so even a cleared timer costs a heap pop at its deadline; the
   wheel shares one alarm across all of them. *)
let timer_backend ~wheel ~live ~churn =
  let saved = !Fox_sched.Timer.use_wheel in
  Fox_sched.Timer.use_wheel := wheel;
  Fun.protect
    ~finally:(fun () -> Fox_sched.Timer.use_wheel := saved)
    (fun () ->
      let churn_s =
        time_cpu (fun () ->
            ignore
              (Scheduler.run (fun () ->
                   let standing =
                     Array.init live (fun i ->
                         Fox_sched.Timer.start ignore (10_000_000 + i))
                   in
                   for i = 0 to churn - 1 do
                     Fox_sched.Timer.clear
                       (Fox_sched.Timer.start ignore (100_000 + (i mod 997)))
                   done;
                   Array.iter Fox_sched.Timer.clear standing)))
      in
      let fire_s =
        time_cpu (fun () ->
            ignore
              (Scheduler.run (fun () ->
                   for i = 0 to live - 1 do
                     ignore
                       (Fox_sched.Timer.start ignore
                          (1_000 + (i * 13 mod 50_000)))
                   done)))
      in
      (churn_s, fire_s))

let bench_soak () =
  section "Overload survival: timer wheel vs heap, SYN-flood soak";
  let module Soak = Fox_check.Soak in
  let live = 2000 and churn = 50_000 in
  Printf.printf
    "Timer backends with %d standing timers: churn is %d start+clear pairs\n\
     (TCP's per-segment retransmission-timer restart), fire lets all %d\n\
     deadlines expire (TIME-WAIT / delayed-ACK mass expiry).\n\n"
    live churn live;
  let heap_churn, heap_fire = timer_backend ~wheel:false ~live ~churn in
  let wheel_churn, wheel_fire = timer_backend ~wheel:true ~live ~churn in
  let per_op s n = s /. float_of_int n *. 1e9 in
  Printf.printf "  %-28s %14s %14s\n" "backend" "churn ns/op" "fire ns/timer";
  Printf.printf "  %-28s %14.0f %14.0f\n" "heap (Figure 11)"
    (per_op heap_churn churn) (per_op heap_fire live);
  Printf.printf "  %-28s %14.0f %14.0f\n" "hierarchical wheel"
    (per_op wheel_churn churn) (per_op wheel_fire live);
  Printf.printf
    "\nFlood soak (%d staggered connections x %d B + %d-SYN flood + %d \
     forged ACKs,\nadverse wire), both timer backends:\n\n"
    Soak.default_config.Soak.conns Soak.default_config.Soak.bytes_per_conn
    Soak.default_config.Soak.flood_syns
    Soak.default_config.Soak.flood_bad_acks;
  let run_soak wheel =
    let w0 = Sys.time () in
    let r = Soak.run { Soak.default_config with Soak.wheel } in
    (r, Sys.time () -. w0)
  in
  let soak_row (label, (r, wall)) =
    Printf.printf
      "  %-8s %d/%d conns, %d flood segs -> %d extra accepts, %d RSTs, %d \
       recycled, %.3f s virtual, %.2f s CPU\n"
      label r.Soak.completed r.Soak.conns r.Soak.flood_sent
      (max 0 (r.Soak.server_accepts - r.Soak.conns))
      r.Soak.rsts_sent r.Soak.time_wait_recycled
      (float_of_int r.Soak.end_time /. 1e6)
      wall
  in
  let wheel_soak = run_soak true and heap_soak = run_soak false in
  soak_row ("wheel", wheel_soak);
  soak_row ("heap", heap_soak);
  let soak_json (r, wall) =
    let extra = max 0 (r.Soak.server_accepts - r.Soak.conns) in
    let refused =
      if r.Soak.flood_sent = 0 then 1.0
      else 1.0 -. (float_of_int extra /. float_of_int r.Soak.flood_sent)
    in
    Json.(
      Obj
        [ ("conns", Int r.Soak.conns); ("completed", Int r.Soak.completed);
          ("flood_segments", Int r.Soak.flood_sent);
          ("flood_extra_accepts", Int extra);
          ("flood_refused_fraction", Float (4, refused));
          ("rsts_sent", Int r.Soak.rsts_sent);
          ("backlog_refused", Int r.Soak.backlog_refused);
          ("syn_dropped", Int r.Soak.syn_dropped);
          ("time_wait_recycled", Int r.Soak.time_wait_recycled);
          ("wire_queue_drops", Int r.Soak.wire_queue_drops);
          ("leaked_packets", Int r.Soak.leaked_packets);
          ("virtual_s", Float (3, float_of_int r.Soak.end_time /. 1e6));
          ("cpu_s", Float (3, wall)) ])
  in
  let ns s n = Json.Float (0, per_op s n) in
  Json.write "BENCH_pr5.json"
    Json.(
      Obj
        [ ("bench", String "pr5_overload_survival");
          ( "timers",
            Obj
              [ ("standing", Int live); ("churn_ops", Int churn);
                ("heap_churn_ns_per_op", ns heap_churn churn);
                ("wheel_churn_ns_per_op", ns wheel_churn churn);
                ("heap_fire_ns_per_timer", ns heap_fire live);
                ("wheel_fire_ns_per_timer", ns wheel_fire live) ] );
          ("soak_wheel", soak_json wheel_soak);
          ("soak_heap", soak_json heap_soak) ])

(* ------------------------------------------------------------------ *)
(* Application serving: HTTP/1.1 and echo under 1k concurrent conns    *)
(* ------------------------------------------------------------------ *)

(* The PR 8 standing benchmark: the fox_app servers behind the buffered
   socket veneer, driven by the fox_check load generator over a clean
   gigabit hub.  1000 clients connect concurrently (ramp 0 ⇒ peak
   concurrency = conns) and each runs 5 request/response exchanges whose
   payloads are verified byte-exact; the latency distribution is
   per-request virtual time. *)
let bench_serve () =
  section "Serving: HTTP/1.1 and echo at 1000 concurrent connections";
  let module Load = Fox_check.Load in
  Printf.printf
    "fox_app servers over the gigabit hub, 1000 clients connecting at\n\
     once, 5 exchanges each, byte-verified payloads; latencies are\n\
     per-request virtual time.\n\n";
  let base =
    {
      Load.default_config with
      Load.conns = 1000;
      requests = 5;
      payload = 1024;
      ramp_us = 0;
      gigabit = true;
    }
  in
  let run app =
    let w0 = Sys.time () in
    let r = Load.run { base with Load.app } in
    (r, Sys.time () -. w0)
  in
  let rows = List.map run [ Load.Http_app; Load.Echo ] in
  Printf.printf "  %-8s %9s %9s %10s %9s %9s %9s\n" "app" "requests" "req/s"
    "peak conc" "p50 ms" "p95 ms" "p99 ms";
  List.iter
    (fun ((r : Load.result), _) ->
      Printf.printf "  %-8s %4d/%-4d %9.0f %10d %9.1f %9.1f %9.1f\n"
        r.Load.app
        r.Load.requests_ok r.Load.requests_attempted r.Load.reqs_per_sec
        r.Load.max_concurrent
        (float_of_int r.Load.p50_us /. 1000.)
        (float_of_int r.Load.p95_us /. 1000.)
        (float_of_int r.Load.p99_us /. 1000.))
    rows;
  let row_json ((r : Load.result), wall) =
    Json.(
      Obj
        [ ("app", String r.Load.app); ("conns", Int r.Load.conns);
          ("requests_ok", Int r.Load.requests_ok);
          ("requests_attempted", Int r.Load.requests_attempted);
          ("conn_errors", Int r.Load.conn_errors);
          ("bytes_received", Int r.Load.bytes_received);
          ("max_concurrent", Int r.Load.max_concurrent);
          ("accepts", Int r.Load.accepts);
          ("reqs_per_sec", Float (1, r.Load.reqs_per_sec));
          ("p50_us", Int r.Load.p50_us); ("p95_us", Int r.Load.p95_us);
          ("p99_us", Int r.Load.p99_us); ("max_us", Int r.Load.max_us);
          ("virtual_s", Float (3, float_of_int r.Load.elapsed_us /. 1e6));
          ("cpu_s", Float (3, wall)) ])
  in
  match rows with
  | [ http; echo ] ->
    Json.write "BENCH_pr8.json"
      Json.(
        Obj
          [ ("bench", String "pr8_application_serving"); ("conns", Int 1000);
            ("requests_per_conn", Int 5); ("payload_bytes", Int 1024);
            ("wire", String "gigabit hub, clean"); ("http", row_json http);
            ("echo", row_json echo) ])
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Sharded engine scaling: serve and soak across OCaml domains         *)
(* ------------------------------------------------------------------ *)

(* The PR 9 standing benchmark.  The 1k-connection serve workload runs
   at 1, 2, 4 and 8 shards — each shard a complete client/server world
   on its own domain, the fleet partitioned by connection — and the
   overload soak runs 10k connections across 4 shards.  Requests/second
   is total completed work over the slowest shard's virtual elapsed
   (the shards execute concurrently, so the slowest one is the critical
   path); wall seconds and the host's core count are reported alongside
   because virtual-time scaling only turns into wall-clock scaling when
   the machine actually has the cores. *)
let bench_shards () =
  section "Sharded engine: serve and soak scaling across domains";
  let module Load = Fox_check.Load in
  let module Soak = Fox_check.Soak in
  Printf.printf
    "http serving, 1000 clients x 5 exchanges x 1024B over the gigabit\n\
     hub, fleet partitioned across N engine shards (one domain each);\n\
     then a 10k-connection overload soak on 4 shards.  Host has %d\n\
     core(s).\n\n"
    (Domain.recommended_domain_count ());
  let base =
    {
      Load.default_config with
      Load.conns = 1000;
      requests = 5;
      payload = 1024;
      ramp_us = 0;
      gigabit = true;
    }
  in
  let virtual_s (r : Load.result) = float_of_int r.Load.elapsed_us /. 1e6 in
  let serve_row shards =
    let r = Load.run { base with Load.shards } in
    Printf.printf
      "  shards %d: %4d/%-4d requests, %8.0f req/s, %6.0f conns/s \
       (%.3fs virtual, %.2fs wall)\n%!"
      shards r.Load.requests_ok r.Load.requests_attempted r.Load.reqs_per_sec
      (float_of_int r.Load.conns /. virtual_s r)
      (virtual_s r) r.Load.wall_s;
    r
  in
  let rows = List.map serve_row [ 1; 2; 4; 8 ] in
  let soak_cfg =
    {
      Soak.default_config with
      Soak.conns = 10_000;
      bytes_per_conn = 512;
      shards = 4;
      (* scale run: overload comes from the SYN flood and queue
         contention; random loss recovery is the soak matrix's job *)
      loss = 0.0;
    }
  in
  let w0 = Unix.gettimeofday () in
  let soak = Soak.run soak_cfg in
  let soak_wall = Unix.gettimeofday () -. w0 in
  Printf.printf
    "\n  soak: %d/%d conns over %d shards, %d invariant faults, %d leaked \
     buffers (%.2fs wall)\n"
    soak.Soak.completed soak.Soak.conns soak_cfg.Soak.shards
    (List.length soak.Soak.invariant_faults)
    soak.Soak.leaked_packets soak_wall;
  let row_json (r : Load.result) =
    Json.(
      Obj
        [ ("shards", Int r.Load.shards);
          ("requests_ok", Int r.Load.requests_ok);
          ("requests_attempted", Int r.Load.requests_attempted);
          ("conn_errors", Int r.Load.conn_errors);
          ("reqs_per_sec", Float (1, r.Load.reqs_per_sec));
          ( "conns_per_sec",
            Float (1, float_of_int r.Load.conns /. virtual_s r) );
          ("p50_us", Int r.Load.p50_us); ("p99_us", Int r.Load.p99_us);
          ("virtual_s", Float (3, virtual_s r));
          ("wall_s", Float (3, r.Load.wall_s)) ])
  in
  let speedup r =
    match rows with
    | r1 :: _ ->
      ( Printf.sprintf "x%d" r.Load.shards,
        Json.Float (2, r.Load.reqs_per_sec /. r1.Load.reqs_per_sec) )
    | [] -> assert false
  in
  Json.write "BENCH_pr9.json"
    Json.(
      Obj
        [ ("bench", String "pr9_sharded_engine");
          ("host_cores", Int (Domain.recommended_domain_count ()));
          ( "serve",
            Obj
              [ ( "workload",
                  String "http, 1000 conns x 5 requests x 1024B, gigabit hub" );
                ( "metric",
                  String "requests_ok / max per-shard virtual elapsed" );
                ("rows", List (List.map row_json rows));
                ("speedup", Obj (List.map speedup rows)) ] );
          ( "soak_10k",
            Obj
              [ ("conns", Int soak.Soak.conns);
                ("shards", Int soak_cfg.Soak.shards);
                ("completed", Int soak.Soak.completed);
                ("connect_failures", Int soak.Soak.connect_failures);
                ( "invariant_faults",
                  Int (List.length soak.Soak.invariant_faults) );
                ("leaked_packets", Int soak.Soak.leaked_packets);
                ("flood_sent", Int soak.Soak.flood_sent);
                ("wall_s", Float (3, soak_wall));
                ("fingerprint", String soak.Soak.fingerprint) ] ) ])

let bench_chaos () =
  section "Chaos survival: path-failure matrix with unguarded teeth";
  let module Chaos = Fox_check.Chaos in
  Printf.printf
    "Deterministic fault plans against every congestion control: link\n\
     flaps, a path-MTU blackhole, a duplicate/corruption storm, and a\n\
     slow-loris siege.  The guarded matrix must survive; the same cells\n\
     with the defenses off must fail.\n\n";
  let w0 = Unix.gettimeofday () in
  let cells, teeth, problems = Chaos.check () in
  let wall = Unix.gettimeofday () -. w0 in
  List.iter (fun r -> Printf.printf "  %s\n" (Chaos.result_to_string r)) cells;
  List.iter
    (fun r -> Printf.printf "  teeth: %s\n" (Chaos.result_to_string r))
    teeth;
  Printf.printf "\n  %d problems, %.2fs wall\n"
    (List.length problems) wall;
  List.iter (fun p -> Printf.printf "  PROBLEM: %s\n" p) problems;
  let cell_json (r : Chaos.result) =
    let c = r.Chaos.chaos in
    Json.(
      Obj
        [ ("scenario", String r.Chaos.scenario); ("cc", String r.Chaos.cc);
          ("guarded", Bool r.Chaos.guarded);
          ("complete", Bool r.Chaos.complete);
          ("delivered", Int r.Chaos.delivered);
          ("expected", Int r.Chaos.expected);
          ("virtual_s", Float (3, float_of_int r.Chaos.end_time /. 1e6));
          ("retransmissions", Int r.Chaos.retransmissions);
          ("blackhole_shrinks", Int r.Chaos.blackhole_shrinks);
          ("blackhole_restores", Int r.Chaos.blackhole_restores);
          ("rtx_limit_aborts", Int r.Chaos.rtx_limit_aborts);
          ("user_timeout_aborts", Int r.Chaos.user_timeout_aborts);
          ("persist_aborts", Int r.Chaos.persist_aborts);
          ("responses_408", Int r.Chaos.responses_408);
          ("chaos_dropped", Int c.Fox_dev.Link.chaos_dropped);
          ("chaos_replayed", Int c.Fox_dev.Link.chaos_replayed);
          ("chaos_duplicated", Int c.Fox_dev.Link.chaos_duplicated);
          ("chaos_corrupted", Int c.Fox_dev.Link.chaos_corrupted);
          ("invariant_faults", Int (List.length r.Chaos.invariant_faults));
          ("leaked_packets", Int r.Chaos.leaked_packets);
          ("fingerprint", String (Chaos.fingerprint r)) ])
  in
  Json.write "BENCH_pr10.json"
    Json.(
      Obj
        [ ("bench", String "pr10_chaos_survival");
          ( "matrix",
            Obj
              [ ( "workload",
                  String
                    "link_flap|mtu_blackhole|dup_storm 256KB transfers, \
                     slowloris siege vs 16 legit clients; x \
                     reno/newreno/cubic/bbr" );
                ( "contract",
                  String
                    "complete, deterministic across two runs, 0 invariant \
                     faults, 0 leaked buffers; blackhole cells shrink MSS; \
                     slowloris cells count 408s" );
                ("rows", List (List.map cell_json cells)) ] );
          ( "teeth",
            Obj
              [ ( "contract",
                  String "same cells with the defenses off must NOT complete" );
                ("rows", List (List.map cell_json teeth)) ] );
          ("problems", Int (List.length problems)); ("wall_s", Float (3, wall))
        ]);
  if problems <> [] then exit 1

(* ------------------------------------------------------------------ *)

let () =
  match Sys.argv with
  | [| _; "fastpath" |] -> ablation_fastpath ()
  | [| _; "soak" |] -> bench_soak ()
  | [| _; "table1" |] -> table1_headline ()
  | [| _; "serve" |] -> bench_serve ()
  | [| _; "shards" |] -> bench_shards ()
  | [| _; "chaos" |] -> bench_chaos ()
  | [| _ |] ->
    Printf.printf
      "Fox Net benchmark harness — reproduces the evaluation of\n\
       \"A Structured TCP in Standard ML\" (Biagioni, SIGCOMM '94).\n";
    microbenchmarks ();
    table1 ();
    table2 ();
    gc_experiment ();
    window_sweep ();
    ablation_control_structure ();
    ablation_checksums ();
    ablation_delayed_ack ();
    ablation_priority ();
    ablation_fastpath ();
    bench_soak ();
    bench_serve ();
    Printf.printf "\n%s\ndone.\n" line
  | _ ->
    prerr_endline "usage: main [fastpath|soak|table1|serve|shards|chaos]";
    exit 2
