open Fox_basis

type stats = {
  switches : int;
  forks : int;
  sleeps : int;
  completed : int;
  blocked : int;
  end_time : int;
}

type _ Effect.t +=
  | Fork : (unit -> unit) -> unit Effect.t
  | Yield : unit Effect.t
  | Sleep : int -> unit Effect.t
  | After : int * bool ref option * (unit -> unit) -> unit Effect.t
  | At : int * (unit -> unit) -> unit Effect.t
  | Now : int Effect.t
  | Advance : int -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Stop : 'a Effect.t

exception Thread_exit

let fork f = Effect.perform (Fork f)

let yield () = Effect.perform Yield

let sleep us = Effect.perform (Sleep us)

let after ?cleared us f = Effect.perform (After (us, cleared, f))

let at time f = Effect.perform (At (time, f))

let now () = Effect.perform Now

(* [advance us] jumps the virtual clock forward by [us] without yielding:
   every sleeper whose due time falls inside the jump becomes due at once
   (released in due order when the run queue next empties).  This is the
   chaos harness's clock-jump fault — the suspend/resume a real host
   experiences — not a scheduling primitive for ordinary code. *)
let advance us = Effect.perform (Advance us)

let suspend f = Effect.perform (Suspend f)

let exit_thread () = raise Thread_exit

let stop () = Effect.perform Stop

type state = {
  mutable clock : int;
  mutable runq : (unit -> unit) Fifo.t;
  sleepq : (int * (unit -> unit)) Heap.t;
  mutable switches : int;
  mutable forks : int;
  mutable sleep_count : int;
  mutable completed : int;
  mutable alive : int;
  mutable stopping : bool;
}

(* Monotonic count of scheduler runs in this process — atomic, because
   each domain of a sharded engine runs its own scheduler and all of them
   draw run identities from this counter.  The epoch *visible* to a
   domain is the identity of the run most recently started on that
   domain (kept in domain-local storage): per-domain timer state (the
   timing wheel) keys off it to detect that a previous run's entries are
   stale and must be discarded, and a run on another domain must not
   perturb it. *)
let runs = Atomic.make 0

let domain_epoch : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

let epoch () = !(Domain.DLS.get domain_epoch)

let run ?(start_time = 0) ?(realtime = false) ?idle main =
  Domain.DLS.get domain_epoch := 1 + Atomic.fetch_and_add runs 1;
  let st =
    {
      clock = start_time;
      runq = Fifo.empty;
      sleepq = Heap.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b);
      switches = 0;
      forks = 0;
      sleep_count = 0;
      completed = 0;
      alive = 0;
      stopping = false;
    }
  in
  let enqueue thunk = st.runq <- Fifo.add thunk st.runq in
  let rec spawn f =
    st.forks <- st.forks + 1;
    st.alive <- st.alive + 1;
    let open Effect.Deep in
    match_with f ()
      {
        retc =
          (fun () ->
            st.alive <- st.alive - 1;
            st.completed <- st.completed + 1);
        exnc =
          (fun e ->
            match e with
            | Thread_exit ->
              st.alive <- st.alive - 1;
              st.completed <- st.completed + 1
            | e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Fork g ->
              Some
                (fun (k : (a, unit) continuation) ->
                  enqueue (fun () -> spawn g);
                  continue k ())
            | Yield ->
              Some (fun (k : (a, unit) continuation) ->
                  enqueue (fun () -> continue k ()))
            | Sleep us ->
              Some
                (fun (k : (a, unit) continuation) ->
                  st.sleep_count <- st.sleep_count + 1;
                  Heap.add st.sleepq
                    (st.clock + max 0 us, fun () -> continue k ()))
            | After (us, cleared, g) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  enqueue (fun () -> post (st.clock + max 0 us) cleared g);
                  continue k ())
            | At (time, g) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  enqueue (fun () ->
                      if time > st.clock then post time None g else spawn g);
                  continue k ())
            | Now -> Some (fun (k : (a, unit) continuation) -> continue k st.clock)
            | Advance us ->
              Some
                (fun (k : (a, unit) continuation) ->
                  st.clock <- st.clock + max 0 us;
                  continue k ())
            | Suspend f ->
              Some
                (fun (k : (a, unit) continuation) ->
                  f (fun v -> enqueue (fun () -> continue k v)))
            | Stop ->
              Some
                (fun (k : (a, unit) continuation) ->
                  ignore k;
                  st.stopping <- true;
                  st.runq <- Fifo.empty;
                  Heap.clear st.sleepq;
                  (* The stopping thread never resumes; account for it. *)
                  st.alive <- st.alive - 1;
                  st.completed <- st.completed + 1)
            | _ -> None);
      }
  (* A posted thunk enters the sleep queue at its own run-queue step —
     the step where a forked thread would have started and called
     [sleep] — so heap order, switches and sleeps are those of the
     thread it replaces; the thread itself is only created at the due
     step, and never if [cleared] was set by then. *)
  and post due cleared f =
    st.sleep_count <- st.sleep_count + 1;
    Heap.add st.sleepq
      ( due,
        fun () -> match cleared with Some c when !c -> () | _ -> spawn f )
  in
  enqueue (fun () -> spawn main);
  let wall0 = if realtime then Unix.gettimeofday () else 0.0 in
  let real_now () =
    start_time + int_of_float ((Unix.gettimeofday () -. wall0) *. 1e6)
  in
  (* in realtime mode the clock tracks the wall; due sleepers are released
     eagerly so timers interleave correctly with device I/O *)
  let release_due () =
    let rec go () =
      match Heap.peek_min st.sleepq with
      | Some (due, _) when due <= st.clock ->
        (match Heap.pop_min st.sleepq with
        | Some (_, thunk) -> enqueue thunk
        | None -> ());
        go ()
      | _ -> ()
    in
    go ()
  in
  let rec loop () =
    if not st.stopping then begin
      if realtime then begin
        st.clock <- max st.clock (real_now ());
        release_due ()
      end;
      match Fifo.next st.runq with
      | Some (thunk, rest) ->
        st.runq <- rest;
        st.switches <- st.switches + 1;
        thunk ();
        loop ()
      | None -> (
        let until =
          match Heap.peek_min st.sleepq with
          | Some (due, _) -> Some (max 0 (due - st.clock))
          | None -> None
        in
        match idle with
        | Some hook when st.alive > 0 || not (Heap.is_empty st.sleepq) ->
          (* external I/O gets a chance to make threads runnable; the hook
             may block up to [until] real microseconds.  Pending posts are
             outstanding work too, though no thread is alive for them. *)
          hook until;
          loop ()
        | _ -> (
          match Heap.pop_min st.sleepq with
          | Some (due, thunk) ->
            if realtime then begin
              let wait = due - st.clock in
              if wait > 0 then Unix.sleepf (float_of_int wait /. 1e6);
              st.clock <- max due (real_now ())
            end
            else st.clock <- max st.clock due;
            enqueue thunk;
            loop ()
          | None -> ()))
    end
  in
  loop ();
  {
    switches = st.switches;
    forks = st.forks;
    sleeps = st.sleep_count;
    completed = st.completed;
    blocked = st.alive;
    end_time = st.clock;
  }

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "switches=%d forks=%d sleeps=%d completed=%d blocked=%d end_time=%dus"
    s.switches s.forks s.sleeps s.completed s.blocked s.end_time
