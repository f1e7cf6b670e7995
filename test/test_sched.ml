(* Tests for Fox_sched: the coroutine scheduler, timers, mailboxes and the
   virtual-CPU cost model. *)

open Fox_sched

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                          *)
(* ------------------------------------------------------------------ *)

let test_run_to_completion () =
  let log = ref [] in
  let push x = log := x :: !log in
  let stats =
    Scheduler.run (fun () ->
        push "main-start";
        Scheduler.fork (fun () ->
            push "child";
            Scheduler.yield ();
            push "child-2");
        push "main-mid";
        Scheduler.yield ();
        push "main-end")
  in
  (* fork keeps the CPU with the parent until it yields *)
  Alcotest.(check (list string))
    "interleaving"
    [ "main-start"; "main-mid"; "child"; "main-end"; "child-2" ]
    (List.rev !log);
  Alcotest.(check int) "forks" 2 stats.forks;
  Alcotest.(check int) "completed" 2 stats.completed;
  Alcotest.(check int) "blocked" 0 stats.blocked

let test_sleep_ordering () =
  let log = ref [] in
  let stats =
    Scheduler.run (fun () ->
        Scheduler.fork (fun () ->
            Scheduler.sleep 300;
            log := ("c", Scheduler.now ()) :: !log);
        Scheduler.fork (fun () ->
            Scheduler.sleep 100;
            log := ("a", Scheduler.now ()) :: !log);
        Scheduler.fork (fun () ->
            Scheduler.sleep 200;
            log := ("b", Scheduler.now ()) :: !log))
  in
  Alcotest.(check (list (pair string int)))
    "wakeup order and times"
    [ ("a", 100); ("b", 200); ("c", 300) ]
    (List.rev !log);
  Alcotest.(check int) "end_time" 300 stats.end_time

let test_clock_monotone_with_equal_deadlines () =
  let log = ref [] in
  let _ =
    Scheduler.run (fun () ->
        for i = 1 to 5 do
          Scheduler.fork (fun () ->
              Scheduler.sleep 50;
              log := i :: !log)
        done)
  in
  Alcotest.(check (list int)) "ties fire in fork order" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_virtual_clock_starts_at () =
  let seen = ref (-1) in
  let _ =
    Scheduler.run ~start_time:5000 (fun () -> seen := Scheduler.now ())
  in
  Alcotest.(check int) "start time" 5000 !seen

let test_exit_thread () =
  let after_exit = ref false in
  let stats =
    Scheduler.run (fun () ->
        Scheduler.fork (fun () ->
            ignore (Scheduler.exit_thread ());
            after_exit := true))
  in
  Alcotest.(check bool) "code after exit unreached" false !after_exit;
  Alcotest.(check int) "completed" 2 stats.completed

let test_stop () =
  let ran = ref 0 in
  let stats =
    Scheduler.run (fun () ->
        Scheduler.fork (fun () ->
            Scheduler.sleep 1_000_000;
            incr ran);
        Scheduler.fork (fun () -> ignore (Scheduler.stop ()));
        Scheduler.sleep 2_000_000;
        incr ran)
  in
  Alcotest.(check int) "nothing ran after stop" 0 !ran;
  Alcotest.(check bool) "ended early" true (stats.end_time < 1_000_000)

let test_suspend_resume () =
  let resumer = ref (fun (_ : int) -> ()) in
  let got = ref 0 in
  let stats =
    Scheduler.run (fun () ->
        Scheduler.fork (fun () -> got := Scheduler.suspend (fun r -> resumer := r));
        Scheduler.yield ();
        !resumer 42)
  in
  Alcotest.(check int) "value passed through suspend" 42 !got;
  Alcotest.(check int) "no thread blocked" 0 stats.blocked

let test_blocked_counted () =
  let stats =
    Scheduler.run (fun () ->
        Scheduler.fork (fun () ->
            ignore (Scheduler.suspend (fun (_ : int -> unit) -> ()))))
  in
  Alcotest.(check int) "blocked" 1 stats.blocked;
  Alcotest.(check int) "completed" 1 stats.completed

let test_deterministic_stats () =
  let round () =
    Scheduler.run (fun () ->
        for i = 1 to 20 do
          Scheduler.fork (fun () ->
              Scheduler.sleep (i * 7);
              Scheduler.yield ())
        done)
  in
  let a = round () and b = round () in
  Alcotest.(check int) "switches equal" a.switches b.switches;
  Alcotest.(check int) "end time equal" a.end_time b.end_time

let sched_sleep_sum =
  qtest "sched: sequential sleeps sum"
    QCheck2.Gen.(list_size (int_range 0 20) (int_bound 1000))
    (fun sleeps ->
      let stats =
        Scheduler.run (fun () -> List.iter Scheduler.sleep sleeps)
      in
      stats.end_time = List.fold_left ( + ) 0 sleeps)

let sched_parallel_max =
  qtest "sched: parallel sleeps take max"
    QCheck2.Gen.(list_size (int_range 1 20) (int_bound 1000))
    (fun sleeps ->
      let stats =
        Scheduler.run (fun () ->
            List.iter (fun us -> Scheduler.fork (fun () -> Scheduler.sleep us)) sleeps)
      in
      stats.end_time = List.fold_left max 0 sleeps)

(* ------------------------------------------------------------------ *)
(* Posts: after / at                                                  *)
(* ------------------------------------------------------------------ *)

(* A post replaces the thread it stands for without moving any event:
   a random schedule where some [fork (fun () -> sleep d; f ())] become
   [after d f], and some forks that wait for an absolute time [t] (in
   the past, now or ahead) become [at t f], runs every [f] in the same
   order at the same time, with the same switch and sleep counts.
   Delays and main-thread pauses are tiny so ties and zero delays are
   common. *)
let sched_posts_match_forks =
  qtest ~count:300 "sched: after/at = the forks they replace"
    QCheck2.Gen.(
      list_size (int_range 0 25)
        (triple (int_bound 4) (oneofl [ 0; 0; 0; 1; 3 ])
           (oneofl [ `Fork; `After; `At ])))
    (fun spec ->
      let round ~posts =
        let log = ref [] in
        let stats =
          Scheduler.run (fun () ->
              List.iteri
                (fun i (d, pause, kind) ->
                  if pause > 0 then Scheduler.sleep pause;
                  let f () =
                    log := (i, Scheduler.now ()) :: !log;
                    if i mod 3 = 0 then Scheduler.yield ()
                  in
                  let t = Scheduler.now () + d - 2 in
                  match (kind, posts) with
                  | `After, true -> Scheduler.after d f
                  | `At, true -> Scheduler.at t f
                  | `At, false ->
                    Scheduler.fork (fun () ->
                        let wait = t - Scheduler.now () in
                        if wait > 0 then Scheduler.sleep wait;
                        f ())
                  | _ ->
                    Scheduler.fork (fun () ->
                        Scheduler.sleep d;
                        f ()))
                spec)
        in
        (List.rev !log, stats)
      in
      let log_a, a = round ~posts:false and log_b, b = round ~posts:true in
      log_a = log_b && a.switches = b.switches && a.sleeps = b.sleeps
      && a.end_time = b.end_time)

let test_at_past_deadline_runs_at_its_step () =
  let log = ref [] in
  let push x = log := (x, Scheduler.now ()) :: !log in
  let stats =
    Scheduler.run (fun () ->
        Scheduler.sleep 100;
        Scheduler.fork (fun () -> push "before");
        Scheduler.at 50 (fun () -> push "past");
        Scheduler.at 100 (fun () -> push "now");
        Scheduler.at 150 (fun () -> push "future");
        Scheduler.fork (fun () -> push "after"))
  in
  Alcotest.(check (list (pair string int)))
    "a due post starts at its own run-queue step"
    [ ("before", 100); ("past", 100); ("now", 100); ("after", 100);
      ("future", 150) ]
    (List.rev !log);
  Alcotest.(check int) "only the future post slept" 2 stats.sleeps

let test_cleared_timer_spawns_nothing () =
  let fired = ref 0 in
  let round ~clear =
    Scheduler.run (fun () ->
        let t = Timer.start (fun () -> incr fired) 250 in
        if clear then Timer.clear t)
  in
  let kept = round ~clear:false and cleared = round ~clear:true in
  Alcotest.(check int) "armed timer fired" 1 !fired;
  Alcotest.(check int) "main + the handler's thread" 2 kept.forks;
  Alcotest.(check int) "a cleared timer creates no thread" 1 cleared.forks;
  Alcotest.(check int) "both still end at the deadline" 250 cleared.end_time;
  Alcotest.(check int) "same switches" kept.switches cleared.switches

let test_stop_discards_pending_posts () =
  let ran = ref 0 in
  let stats =
    Scheduler.run (fun () ->
        Scheduler.after 1_000 (fun () -> incr ran);
        Scheduler.at 2_000 (fun () -> incr ran);
        ignore (Timer.start (fun () -> incr ran) 3_000);
        Scheduler.fork (fun () ->
            Scheduler.sleep 10;
            ignore (Scheduler.stop ())))
  in
  Alcotest.(check int) "no post ran after stop" 0 !ran;
  Alcotest.(check int) "stopped at once" 10 stats.end_time;
  Alcotest.(check int) "pending posts are not blocked threads" 0
    stats.blocked

let test_after_with_advance () =
  let log = ref [] in
  let push x = log := (x, Scheduler.now ()) :: !log in
  let _ =
    Scheduler.run (fun () ->
        (* processed before the jump: due at 100, released by it *)
        Scheduler.after 100 (fun () -> push "inside");
        Scheduler.yield ();
        Scheduler.advance 1_000;
        (* processed after the jump: relative to the new clock *)
        Scheduler.after 100 (fun () -> push "relative");
        Scheduler.at 500 (fun () -> push "absolute, passed");
        Scheduler.at 1_050 (fun () -> push "absolute, ahead"))
  in
  Alcotest.(check (list (pair string int)))
    "posts and the clock jump"
    [ ("absolute, passed", 1_000); ("inside", 1_000);
      ("absolute, ahead", 1_050); ("relative", 1_100) ]
    (List.rev !log)

(* The wheel's alarm is an absolute post: a timer armed just before a
   clock jump fires when the jump lands, not a jump late. *)
let test_wheel_alarm_across_advance () =
  let fired_at = ref (-1) in
  let saved = !Timer.use_wheel in
  Timer.use_wheel := true;
  Fun.protect
    ~finally:(fun () -> Timer.use_wheel := saved)
    (fun () ->
      ignore
        (Scheduler.run (fun () ->
             ignore (Timer.start (fun () -> fired_at := Scheduler.now ()) 2_000);
             Scheduler.advance 10_000)));
  Alcotest.(check int) "fired as the jump landed" 10_000 !fired_at

(* ------------------------------------------------------------------ *)
(* Realtime mode and the idle hook                                    *)
(* ------------------------------------------------------------------ *)

let test_realtime_sleep_takes_real_time () =
  let wall0 = Unix.gettimeofday () in
  let stats = Scheduler.run ~realtime:true (fun () -> Scheduler.sleep 30_000) in
  let wall = Unix.gettimeofday () -. wall0 in
  Alcotest.(check bool) "took at least ~25ms of wall time" true (wall >= 0.025);
  Alcotest.(check bool) "clock tracked the wall" true
    (stats.Scheduler.end_time >= 25_000)

let test_virtual_sleep_takes_no_real_time () =
  let wall0 = Unix.gettimeofday () in
  let stats = Scheduler.run (fun () -> Scheduler.sleep 10_000_000) in
  let wall = Unix.gettimeofday () -. wall0 in
  Alcotest.(check bool) "10 virtual seconds in under 100ms wall" true
    (wall < 0.1);
  Alcotest.(check int) "virtual clock advanced" 10_000_000
    stats.Scheduler.end_time

let test_idle_hook_injects_work () =
  (* a thread suspends; only the idle hook can resume it *)
  let resumer = ref None in
  let got = ref 0 in
  let hook_calls = ref 0 in
  let _ =
    Scheduler.run
      ~idle:(fun _until ->
        incr hook_calls;
        match !resumer with
        | Some r ->
          resumer := None;
          r 99
        | None ->
          (* nothing left to inject: end the run by resuming nobody and
             stopping via the suspended thread being the only one alive *)
          ())
      (fun () ->
        got := Scheduler.suspend (fun r -> resumer := Some r);
        ignore (Scheduler.stop ()))
  in
  Alcotest.(check int) "value injected from outside" 99 !got;
  Alcotest.(check bool) "hook ran" true (!hook_calls >= 1)

let test_idle_hook_sees_time_to_next_timer () =
  let seen = ref None in
  let resumer = ref None in
  let _ =
    Scheduler.run
      ~idle:(fun until ->
        if !seen = None then seen := Some until;
        match !resumer with
        | Some r ->
          resumer := None;
          r ()
        | None -> ())
      (fun () ->
        Scheduler.fork (fun () -> Scheduler.sleep 5_000);
        Scheduler.suspend (fun r -> resumer := Some r);
        ignore (Scheduler.stop ()))
  in
  match !seen with
  | Some (Some us) ->
    Alcotest.(check bool) "until reflects the sleeper" true (us <= 5_000)
  | _ -> Alcotest.fail "idle hook did not see the pending timer"

(* A realtime run whose only outstanding work is a timer must keep
   calling the idle hook (a device poll, in a TAP run) until the timer
   is due, rather than sleeping past the device. *)
let test_realtime_idle_polls_with_only_a_timer () =
  let fired_at = ref (-1) in
  let untils = ref [] in
  let stats =
    Scheduler.run ~realtime:true
      ~idle:(fun until ->
        untils := until :: !untils;
        Option.iter (fun us -> Unix.sleepf (float_of_int us /. 1e6)) until)
      (fun () ->
        ignore (Timer.start (fun () -> fired_at := Scheduler.now ()) 20_000))
  in
  Alcotest.(check bool) "timer fired on time" true (!fired_at >= 20_000);
  match List.rev !untils with
  | Some first :: _ ->
    Alcotest.(check bool) "first poll waits at most until the timer" true
      (first > 0 && first <= 20_000);
    Alcotest.(check bool) "run ended after the timer" true
      (stats.end_time >= 20_000)
  | _ -> Alcotest.fail "idle hook not polled while the timer was pending"

(* ------------------------------------------------------------------ *)
(* Timer                                                              *)
(* ------------------------------------------------------------------ *)

let test_timer_fires () =
  let fired_at = ref (-1) in
  let _ =
    Scheduler.run (fun () ->
        ignore (Timer.start (fun () -> fired_at := Scheduler.now ()) 250))
  in
  Alcotest.(check int) "fired at 250us" 250 !fired_at

let test_timer_cleared () =
  let fired = ref false in
  let _ =
    Scheduler.run (fun () ->
        let t = Timer.start (fun () -> fired := true) 250 in
        Scheduler.sleep 100;
        Timer.clear t;
        Scheduler.sleep 500)
  in
  Alcotest.(check bool) "cleared timer silent" false !fired

let test_timer_clear_after_expiry_harmless () =
  let fired = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        let t = Timer.start (fun () -> incr fired) 10 in
        Scheduler.sleep 100;
        Timer.clear t;
        Timer.clear t)
  in
  Alcotest.(check int) "fired once" 1 !fired

let test_timer_clear_race_same_instant () =
  (* Clearing at exactly the expiry time: the timer's post enters the
     sleep queue at its own step, after the main thread's sleep (fork
     order), so the clear wins deterministically. *)
  let fired = ref false in
  let _ =
    Scheduler.run (fun () ->
        let t = Timer.start (fun () -> fired := true) 100 in
        Scheduler.sleep 100;
        Timer.clear t)
  in
  Alcotest.(check bool) "clear at expiry instant wins" false !fired

let timer_many =
  qtest "timer: n timers, k cleared, n-k fire"
    QCheck2.Gen.(list_size (int_range 0 30) (pair (int_bound 500) bool))
    (fun specs ->
      let fired = ref 0 in
      let expected =
        List.length (List.filter (fun (_, keep) -> keep) specs)
      in
      let _ =
        Scheduler.run (fun () ->
            let timers =
              List.map
                (fun (us, _) -> Timer.start (fun () -> incr fired) (us + 1))
                specs
            in
            List.iter2
              (fun t (_, keep) -> if not keep then Timer.clear t)
              timers specs;
            Scheduler.sleep 1000)
      in
      !fired = expected)

(* ------------------------------------------------------------------ *)
(* Cond                                                               *)
(* ------------------------------------------------------------------ *)

let test_cond_signal_then_wait () =
  let got = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        let c = Cond.create () in
        Cond.signal c 7;
        got := Cond.wait c)
  in
  Alcotest.(check int) "buffered value" 7 !got

let test_cond_wait_then_signal () =
  let got = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        let c = Cond.create () in
        Scheduler.fork (fun () -> got := Cond.wait c);
        Scheduler.yield ();
        Alcotest.(check int) "one waiter" 1 (Cond.waiters c);
        Cond.signal c 9)
  in
  Alcotest.(check int) "delivered" 9 !got

let test_cond_fifo_delivery () =
  let order = ref [] in
  let _ =
    Scheduler.run (fun () ->
        let c = Cond.create () in
        for i = 1 to 3 do
          Scheduler.fork (fun () ->
              let v = Cond.wait c in
              order := (i, v) :: !order)
        done;
        Scheduler.yield ();
        Cond.signal c "x";
        Cond.signal c "y";
        Cond.signal c "z")
  in
  Alcotest.(check (list (pair int string)))
    "first waiter gets first value"
    [ (1, "x"); (2, "y"); (3, "z") ]
    (List.rev !order)

let test_cond_broadcast () =
  let woke = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        let c = Cond.create () in
        for _ = 1 to 5 do
          Scheduler.fork (fun () ->
              ignore (Cond.wait c);
              incr woke)
        done;
        Scheduler.yield ();
        Cond.broadcast c ())
  in
  Alcotest.(check int) "all woke" 5 !woke

let test_cond_try_wait () =
  let _ =
    Scheduler.run (fun () ->
        let c = Cond.create () in
        Alcotest.(check (option int)) "empty" None (Cond.try_wait c);
        Cond.signal c 3;
        Alcotest.(check int) "pending" 1 (Cond.pending c);
        Alcotest.(check (option int)) "take" (Some 3) (Cond.try_wait c);
        Alcotest.(check (option int)) "empty again" None (Cond.try_wait c))
  in
  ()

(* ------------------------------------------------------------------ *)
(* Cpu                                                                *)
(* ------------------------------------------------------------------ *)

let test_cpu_serialises () =
  let open Fox_basis in
  let counters = Counters.create () in
  let cpu = Cpu.create counters in
  let done_at = ref [] in
  let stats =
    Scheduler.run (fun () ->
        for _ = 1 to 3 do
          Scheduler.fork (fun () ->
              Cpu.charge cpu "work" 100;
              done_at := Scheduler.now () :: !done_at)
        done)
  in
  Alcotest.(check (list int)) "serialised" [ 100; 200; 300 ] (List.rev !done_at);
  Alcotest.(check int) "end" 300 stats.end_time;
  Alcotest.(check int) "counter total" 300 (Counters.total counters "work");
  Alcotest.(check int) "counter updates" 3 (Counters.updates counters "work")

let test_cpu_scale () =
  let open Fox_basis in
  let counters = Counters.create () in
  let cpu = Cpu.create ~scale:2.0 counters in
  let stats = Scheduler.run (fun () -> Cpu.charge cpu "w" 50) in
  Alcotest.(check int) "scaled time" 100 stats.end_time;
  Alcotest.(check int) "scaled counter" 100 (Counters.total counters "w")

let test_cpu_async_overlaps () =
  let open Fox_basis in
  let counters = Counters.create () in
  let cpu = Cpu.create counters in
  let t = ref (-1) in
  let _ =
    Scheduler.run (fun () ->
        Cpu.charge_async cpu "dma" 500;
        t := Scheduler.now ();
        (* a later synchronous charge queues behind the async work *)
        Cpu.charge cpu "cpu" 10;
        Alcotest.(check int) "queued behind dma" 510 (Scheduler.now ()))
  in
  Alcotest.(check int) "async did not block" 0 !t

let () =
  Alcotest.run "fox_sched"
    [
      ( "scheduler",
        [
          Alcotest.test_case "run to completion" `Quick test_run_to_completion;
          Alcotest.test_case "sleep ordering" `Quick test_sleep_ordering;
          Alcotest.test_case "equal deadlines FIFO" `Quick
            test_clock_monotone_with_equal_deadlines;
          Alcotest.test_case "start time" `Quick test_virtual_clock_starts_at;
          Alcotest.test_case "exit_thread" `Quick test_exit_thread;
          Alcotest.test_case "stop" `Quick test_stop;
          Alcotest.test_case "suspend/resume" `Quick test_suspend_resume;
          Alcotest.test_case "blocked counted" `Quick test_blocked_counted;
          Alcotest.test_case "deterministic" `Quick test_deterministic_stats;
          sched_sleep_sum;
          sched_parallel_max;
        ] );
      ( "post",
        [
          sched_posts_match_forks;
          Alcotest.test_case "at past deadline" `Quick
            test_at_past_deadline_runs_at_its_step;
          Alcotest.test_case "cleared timer spawns nothing" `Quick
            test_cleared_timer_spawns_nothing;
          Alcotest.test_case "stop with posts pending" `Quick
            test_stop_discards_pending_posts;
          Alcotest.test_case "advance" `Quick test_after_with_advance;
          Alcotest.test_case "wheel alarm across advance" `Quick
            test_wheel_alarm_across_advance;
        ] );
      ( "realtime",
        [
          Alcotest.test_case "realtime sleep" `Quick
            test_realtime_sleep_takes_real_time;
          Alcotest.test_case "virtual sleep is free" `Quick
            test_virtual_sleep_takes_no_real_time;
          Alcotest.test_case "idle hook injects" `Quick test_idle_hook_injects_work;
          Alcotest.test_case "idle hook timeout arg" `Quick
            test_idle_hook_sees_time_to_next_timer;
          Alcotest.test_case "idle hook polls with only a timer" `Quick
            test_realtime_idle_polls_with_only_a_timer;
        ] );
      ( "timer",
        [
          Alcotest.test_case "fires" `Quick test_timer_fires;
          Alcotest.test_case "cleared" `Quick test_timer_cleared;
          Alcotest.test_case "clear after expiry" `Quick
            test_timer_clear_after_expiry_harmless;
          Alcotest.test_case "clear at expiry instant" `Quick
            test_timer_clear_race_same_instant;
          timer_many;
        ] );
      ( "cond",
        [
          Alcotest.test_case "signal then wait" `Quick test_cond_signal_then_wait;
          Alcotest.test_case "wait then signal" `Quick test_cond_wait_then_signal;
          Alcotest.test_case "fifo delivery" `Quick test_cond_fifo_delivery;
          Alcotest.test_case "broadcast" `Quick test_cond_broadcast;
          Alcotest.test_case "try_wait" `Quick test_cond_try_wait;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "serialises" `Quick test_cpu_serialises;
          Alcotest.test_case "scale" `Quick test_cpu_scale;
          Alcotest.test_case "async overlaps" `Quick test_cpu_async_overlaps;
        ] );
    ]
