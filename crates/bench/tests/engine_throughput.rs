//! Engine throughput under a pure beacon load: every node broadcasts a
//! small payload on a fixed period, which floods the calendar queue,
//! the MAC and the delivery fan-out with no protocol logic on top.
//!
//! The event count of a load is a pure function of its deployment and
//! seeds, which the tier-1 test pins at small N. The events/sec floor
//! at N=10k measures the host, so it is `#[ignore]`d and meant for a
//! release build:
//!
//! ```text
//! cargo test --release -p icpda-bench --test engine_throughput -- --ignored --nocapture
//! ```

use icpda_bench::{paper_deployment, scaled_deployment};
use std::time::Instant;
use wsn_sim::prelude::*;

/// Periodic broadcaster: beacons 24 bytes every `period` until `until`.
struct BeaconLoad {
    period: SimDuration,
    until: SimTime,
}

impl Application for BeaconLoad {
    type Message = Vec<u8>;

    fn on_start(&mut self, ctx: &mut Context<'_, Vec<u8>>) {
        // Stagger the first beacon by node id so the network does not
        // transmit in one synchronized burst.
        let offset = SimDuration::from_micros(u64::from(ctx.id().as_u32()) * 137 % 200_000);
        ctx.set_timer(offset, 0);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, Vec<u8>>, _from: NodeId, _msg: &Vec<u8>) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, Vec<u8>>, _token: u64) {
        ctx.broadcast(vec![0u8; 24]);
        if ctx.now() + self.period < self.until {
            ctx.set_timer(self.period, 0);
        }
    }
}

/// Runs 3 virtual seconds of 250 ms beacons (plus 1 s to drain) over
/// `dep` and returns the events the engine executed.
fn beacon_events(dep: Deployment) -> u64 {
    let until = SimTime::from_secs(3);
    let mut sim = Simulator::new(dep, SimConfig::paper_default(), 23, |_| BeaconLoad {
        period: SimDuration::from_millis(250),
        until,
    });
    sim.run_until(until + SimDuration::from_secs(1));
    sim.events_processed()
}

#[test]
fn engine_load_is_deterministic_in_event_count() {
    let a = beacon_events(paper_deployment(60, 11));
    let b = beacon_events(paper_deployment(60, 11));
    assert_eq!(a, b);
    assert!(a > 1000, "beacon load should generate real traffic: {a}");
}

/// The engine floor: N=10k at the paper's density (the degree stays at
/// paper size while the event population grows), one discarded warm-up
/// pass, then the median of three timed passes. A pass includes
/// building the deployment.
#[test]
#[ignore = "host timing floor; run in release with -- --ignored"]
fn engine_events_n10k_clears_one_million_per_second() {
    const PASSES: usize = 3;
    const FLOOR: f64 = 1_000_000.0;
    let pass = || {
        let started = Instant::now();
        let events = beacon_events(scaled_deployment(10_000, 11));
        (events, started.elapsed().as_secs_f64())
    };
    let (events, _) = pass();
    let mut secs = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let (n, s) = pass();
        assert_eq!(n, events, "event count varied between passes");
        secs.push(s);
    }
    secs.sort_by(f64::total_cmp);
    let median = secs[PASSES / 2];
    let rate = events as f64 / median;
    println!(
        "engine_events_n10k: {rate:.0} events/s ({events} events, median {median:.3} s of {PASSES} passes)"
    );
    assert!(
        rate >= FLOOR,
        "engine throughput floor broken: {rate:.0} < {FLOOR:.0} events/s"
    );
}
