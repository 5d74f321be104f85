//! Timer semantics: cancellation, stepping, run_for windows.

use wsn_sim::geometry::{Point, Region};
use wsn_sim::prelude::*;

#[derive(Default)]
struct TimerProbe {
    fired: Vec<TimerToken>,
    cancel_next: Option<TimerId>,
}

impl Application for TimerProbe {
    type Message = ();

    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        // Token 1 at 10 ms, token 2 at 20 ms; token 2 gets cancelled when
        // token 1 fires.
        ctx.set_timer(SimDuration::from_millis(10), 1);
        self.cancel_next = Some(ctx.set_timer(SimDuration::from_millis(20), 2));
        ctx.set_timer(SimDuration::from_millis(30), 3);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _m: &()) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, ()>, token: TimerToken) {
        self.fired.push(token);
        if token == 1 {
            if let Some(id) = self.cancel_next.take() {
                ctx.cancel_timer(id);
            }
        }
    }
}

fn single_node() -> Simulator<TimerProbe> {
    let dep = Deployment::from_positions(vec![Point::new(0.0, 0.0)], Region::new(10.0, 10.0), 5.0);
    Simulator::new(dep, SimConfig::ideal(), 1, |_| TimerProbe::default())
}

#[test]
fn cancelled_timers_do_not_fire() {
    let mut sim = single_node();
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.app(NodeId::new(0)).fired, vec![1, 3]);
}

#[test]
fn run_for_advances_exactly_the_window() {
    let mut sim = single_node();
    sim.run_for(SimDuration::from_millis(15));
    assert_eq!(sim.now(), SimTime::from_millis(15));
    assert_eq!(sim.app(NodeId::new(0)).fired, vec![1]);
    sim.run_for(SimDuration::from_millis(20));
    assert_eq!(sim.now(), SimTime::from_millis(35));
    assert_eq!(sim.app(NodeId::new(0)).fired, vec![1, 3]);
}

#[test]
fn step_executes_one_event_at_a_time() {
    let mut sim = single_node();
    let mut steps = 0;
    while sim.step() {
        steps += 1;
        assert!(steps < 100, "runaway event loop");
    }
    // 3 timers scheduled, one cancelled: 2 fire; the cancelled one is
    // consumed silently as an event pop.
    assert_eq!(sim.app(NodeId::new(0)).fired, vec![1, 3]);
    assert_eq!(steps, 3, "three scheduled entries popped");
}

#[test]
fn time_never_runs_backwards() {
    let mut sim = single_node();
    let mut last = sim.now();
    while sim.step() {
        assert!(sim.now() >= last);
        last = sim.now();
    }
}

/// Fires a scripted chain of timers on one node; `on_fire` decides what
/// each firing does with the handles seen so far.
struct Chain {
    fired: Vec<TimerToken>,
    ids: Vec<TimerId>,
    on_fire: fn(&mut Chain, &mut Context<'_, ()>, TimerToken),
}

impl Application for Chain {
    type Message = ();

    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        (self.on_fire)(self, ctx, 0);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _m: &()) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, ()>, token: TimerToken) {
        self.fired.push(token);
        (self.on_fire)(self, ctx, token);
    }
}

fn chain(on_fire: fn(&mut Chain, &mut Context<'_, ()>, TimerToken)) -> Simulator<Chain> {
    let dep = Deployment::from_positions(vec![Point::new(0.0, 0.0)], Region::new(10.0, 10.0), 5.0);
    let mut sim = Simulator::new(dep, SimConfig::ideal(), 1, move |_| Chain {
        fired: Vec::new(),
        ids: Vec::new(),
        on_fire,
    });
    sim.run_to_quiescence(SimTime::from_secs(3600));
    sim
}

#[test]
fn cancel_after_fire_is_a_no_op() {
    let sim = chain(|c, ctx, token| match token {
        0 => {
            c.ids.push(ctx.set_timer(SimDuration::from_millis(10), 1));
            ctx.set_timer(SimDuration::from_millis(20), 2);
            ctx.set_timer(SimDuration::from_millis(30), 3);
        }
        2 => {
            // Timer 1 already fired: cancelling it must change nothing,
            // neither for pending timer 3 nor for one set right after.
            ctx.cancel_timer(c.ids[0]);
            ctx.cancel_timer(c.ids[0]);
            ctx.set_timer(SimDuration::from_millis(5), 4);
        }
        _ => {}
    });
    assert_eq!(sim.app(NodeId::new(0)).fired, vec![1, 2, 4, 3]);
}

#[test]
fn stale_handle_cannot_cancel_the_timer_reusing_its_slot() {
    let sim = chain(|c, ctx, token| match token {
        0 => c.ids.push(ctx.set_timer(SimDuration::from_millis(10), 1)),
        1 => {
            // Timer 1's slot is free again, so timer 2 takes it under a
            // new generation; the stale handle must miss it.
            ctx.set_timer(SimDuration::from_millis(10), 2);
            ctx.cancel_timer(c.ids[0]);
        }
        _ => {}
    });
    assert_eq!(sim.app(NodeId::new(0)).fired, vec![1, 2]);
    assert_eq!(sim.timer_slots(), 1, "timer 2 reused timer 1's slot");
}

#[test]
fn slab_is_bounded_by_peak_pending_timers() {
    const PENDING: u64 = 4;
    const CYCLES: usize = 10_000;
    let sim = chain(|c, ctx, token| {
        if token == 0 {
            for k in 1..=PENDING {
                ctx.set_timer(SimDuration::from_micros(k), k);
            }
        } else if c.fired.len() + PENDING as usize <= CYCLES {
            // Each firing re-arms one timer: never more than PENDING
            // are pending at once.
            ctx.set_timer(SimDuration::from_millis(1), token);
        }
    });
    assert_eq!(sim.app(NodeId::new(0)).fired.len(), CYCLES);
    assert!(
        sim.timer_slots() <= PENDING as usize,
        "{} slots for at most {PENDING} pending timers",
        sim.timer_slots()
    );
}
