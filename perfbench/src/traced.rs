//! The traced run: the same session as `IcpdaRun::run`, built from
//! benchmark code over a wrapper application that times every protocol
//! callback, with the engine's self-profiler on. Nothing here changes
//! what is simulated, which the self-test in `main` checks.

use crate::workload::{SessionFacts, Setup};
use icpda::{IcpdaMsg, IcpdaNode};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use wsn_sim::prelude::*;
use wsn_sim::{ArenaStats, EngineProfile, TimerToken};

/// `IcpdaMsg` variant names, indexed by [`variant`].
pub const VARIANTS: [&str; 16] = [
    "Query",
    "HeadAnnounce",
    "Join",
    "Resign",
    "ClusterInfo",
    "Share",
    "ShareRelay",
    "RawReading",
    "ShareNack",
    "FSum",
    "FsumNack",
    "FsumEcho",
    "Upstream",
    "NewRound",
    "HeadBeacon",
    "Alarm",
];

/// Index of `msg`'s variant in [`VARIANTS`]. Exhaustive on purpose: a
/// new message kind must be given a row before the benchmark builds.
fn variant(msg: &IcpdaMsg) -> usize {
    match msg {
        IcpdaMsg::Query { .. } => 0,
        IcpdaMsg::HeadAnnounce => 1,
        IcpdaMsg::Join { .. } => 2,
        IcpdaMsg::Resign { .. } => 3,
        IcpdaMsg::ClusterInfo { .. } => 4,
        IcpdaMsg::Share { .. } => 5,
        IcpdaMsg::ShareRelay { .. } => 6,
        IcpdaMsg::RawReading { .. } => 7,
        IcpdaMsg::ShareNack { .. } => 8,
        IcpdaMsg::FSum { .. } => 9,
        IcpdaMsg::FsumNack { .. } => 10,
        IcpdaMsg::FsumEcho { .. } => 11,
        IcpdaMsg::Upstream { .. } => 12,
        IcpdaMsg::NewRound { .. } => 13,
        IcpdaMsg::HeadBeacon { .. } => 14,
        IcpdaMsg::Alarm { .. } => 15,
    }
}

/// Calls and host nanoseconds per protocol callback kind.
#[derive(Clone, Debug, Default)]
pub struct AppTimes {
    pub on_message: [(u64, u64); 16],
    /// `[Upstream, any other kind]`: only overheard upstream reports are
    /// audited; every other overheard frame is discarded.
    pub on_overhear: [(u64, u64); 2],
    pub on_timer: (u64, u64),
    pub on_start: (u64, u64),
}

impl AppTimes {
    /// Host nanoseconds of every callback.
    pub fn total_ns(&self) -> u64 {
        self.delivery_ns() + self.on_timer.1 + self.on_start.1
    }

    /// Host nanoseconds of the callbacks a delivery runs.
    pub fn delivery_ns(&self) -> u64 {
        self.on_message
            .iter()
            .chain(&self.on_overhear)
            .map(|c| c.1)
            .sum()
    }

    fn add(&mut self, other: &AppTimes) {
        let pairs = self.on_message.iter_mut().chain(&mut self.on_overhear);
        for (a, b) in pairs.zip(other.on_message.iter().chain(&other.on_overhear)) {
            a.0 += b.0;
            a.1 += b.1;
        }
        for (a, b) in [
            (&mut self.on_timer, other.on_timer),
            (&mut self.on_start, other.on_start),
        ] {
            a.0 += b.0;
            a.1 += b.1;
        }
    }
}

fn charge(slot: &mut (u64, u64), since: Instant) {
    slot.0 += 1;
    slot.1 += since.elapsed().as_nanos() as u64;
}

/// An `IcpdaNode` whose callbacks are timed into a shared [`AppTimes`].
struct Timed {
    node: IcpdaNode,
    times: Rc<RefCell<AppTimes>>,
}

impl Application for Timed {
    type Message = IcpdaMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, IcpdaMsg>) {
        let t = Instant::now();
        self.node.on_start(ctx);
        charge(&mut self.times.borrow_mut().on_start, t);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, IcpdaMsg>, from: NodeId, msg: &IcpdaMsg) {
        let t = Instant::now();
        self.node.on_message(ctx, from, msg);
        charge(&mut self.times.borrow_mut().on_message[variant(msg)], t);
    }

    fn on_overhear(&mut self, ctx: &mut Context<'_, IcpdaMsg>, frame: &Frame<IcpdaMsg>) {
        let t = Instant::now();
        self.node.on_overhear(ctx, frame);
        let kind = usize::from(!matches!(&*frame.payload, IcpdaMsg::Upstream { .. }));
        charge(&mut self.times.borrow_mut().on_overhear[kind], t);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, IcpdaMsg>, token: TimerToken) {
        let t = Instant::now();
        self.node.on_timer(ctx, token);
        charge(&mut self.times.borrow_mut().on_timer, t);
    }
}

/// Everything one traced session measured.
pub struct TracedSession {
    pub facts: SessionFacts,
    pub events: u64,
    /// Host seconds from simulator construction to the session deadline.
    pub wall_s: f64,
    pub profile: EngineProfile,
    pub times: AppTimes,
    pub arena: ArenaStats,
    pub receptions: u64,
    /// Lost receptions per cause, in [`LOSS_CAUSES`] order.
    pub lost: [u64; 6],
    pub user_counters: Vec<(&'static str, u64)>,
    pub heads: u64,
}

/// Loss causes and their metric names.
pub const LOSS_CAUSES: [(LossCause, &str); 6] = [
    (LossCause::Collision, "collision"),
    (LossCause::Stochastic, "stochastic"),
    (LossCause::HalfDuplex, "half_duplex"),
    (LossCause::MacDrop, "mac_drop"),
    (LossCause::ReceiverDown, "receiver_down"),
    (LossCause::Corrupt, "corrupt"),
];

/// Runs `setup`'s session the way `IcpdaRun::run` does (same simulator
/// configuration, plans, round-boundary epochs and deadline), with the
/// engine profiler on and every callback timed.
pub fn run(setup: Setup) -> TracedSession {
    let Setup {
        deployment,
        config,
        readings,
        fault_plan,
        channel_plan,
        run_seed,
    } = setup;
    let times = Rc::new(RefCell::new(AppTimes::default()));
    let mut sim_config = SimConfig::paper_default();
    sim_config.profile = true;
    let t0 = Instant::now();
    let mut sim = Simulator::new(deployment, sim_config, run_seed, |id| Timed {
        node: IcpdaNode::new(config, id == NodeId::new(0), readings[id.index()]),
        times: Rc::clone(&times),
    });
    if !fault_plan.is_empty() {
        sim.set_fault_plan(fault_plan);
    }
    if !channel_plan.is_empty() {
        sim.set_channel_plan(channel_plan);
    }
    let decision_time = config.schedule.decision_time();
    for round in 1..config.rounds {
        sim.run_until(
            SimTime::ZERO + decision_time * u64::from(round) + SimDuration::from_millis(50),
        );
        sim.begin_frame_epoch();
    }
    sim.run_until(
        SimTime::ZERO + decision_time * u64::from(config.rounds) + SimDuration::from_secs(1),
    );
    let wall_s = t0.elapsed().as_secs_f64();

    let bs = &sim.app(NodeId::new(0)).node;
    let final_start = SimTime::ZERO + decision_time * u64::from(config.rounds - 1);
    let metrics = sim.metrics();
    let facts = SessionFacts::new(
        bs.decisions(),
        metrics.total_frames_sent(),
        metrics.total_bytes_sent(),
        bs.last_update(),
        final_start,
    );
    let receptions = metrics
        .iter()
        .map(|(_, m)| m.frames_received + m.frames_overheard)
        .sum();
    let lost = LOSS_CAUSES.map(|(cause, _)| metrics.total_lost(cause));
    let heads = sim
        .apps()
        .filter(|(_, a)| a.node.role() == icpda::Role::Head)
        .count() as u64;
    let times = times.borrow().clone();
    TracedSession {
        facts,
        events: sim.events_processed(),
        wall_s,
        profile: sim.engine_profile(),
        times,
        arena: sim.arena_stats(),
        receptions,
        lost,
        user_counters: metrics.user_counters().collect(),
        heads,
    }
}

/// Per-callback times summed over several sessions.
pub fn total_times<'a>(sessions: impl IntoIterator<Item = &'a TracedSession>) -> AppTimes {
    let mut sum = AppTimes::default();
    for s in sessions {
        sum.add(&s.times);
    }
    sum
}
