(* The paper's Figure-11 timer interface, with two backends.

   [Threaded] is Figure 11: the timer is an updatable boolean shared
   between the creator and the scheduler's post.  Every armed timer is
   one sleep-queue entry, exact to the microsecond; the handler's thread
   is created only at expiry, and not at all once the timer is cleared.

   [Wheeled] parks the timer in the hierarchical timing wheel instead:
   O(1) arm/clear and a single shared alarm post, at the price of
   firing up to one wheel grain (~1 ms virtual) late.  Select it with
   [use_wheel] before the stack starts arming timers. *)

type t = Threaded of bool ref | Wheeled of Wheel.entry

let use_wheel = ref false

let start handler us =
  if !use_wheel then Wheeled (Wheel.schedule handler us)
  else begin
    let cleared = ref false in
    Scheduler.after ~cleared us handler;
    Threaded cleared
  end

let clear = function
  | Threaded cleared -> cleared := true
  | Wheeled e -> Wheel.cancel e

let cleared = function
  | Threaded cleared -> !cleared
  | Wheeled e -> Wheel.cancelled e
