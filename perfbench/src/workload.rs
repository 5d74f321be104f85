//! The benchmark's workloads: how each builds its inputs from a seed,
//! how a session is run untraced, and how its decisions are checked.

use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaOutcome, IcpdaRun, ReliabilityConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_sim::prelude::*;

/// The paper's radio range, metres.
const RADIO_RANGE: f64 = 50.0;

/// The paper's node density: 600 nodes on 400 m × 400 m.
const PAPER_DENSITY: f64 = 600.0 / (400.0 * 400.0);

/// Share of sensors `churn_n600` crashes over its session.
const CHURN_RATE: f64 = 0.10;

/// Gilbert–Elliott loss rate and burstiness of `churn_n600`'s channel.
const CHURN_LOSS: (f64, f64) = (0.1, 0.8);

/// Frame-corruption probability of `churn_n600`'s channel.
const CHURN_CORRUPT: f64 = 0.02;

/// Rounds per `churn_n600` session.
const CHURN_ROUNDS: u16 = 3;

/// A named set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's evaluation point: N=600 on 400 m × 400 m, COUNT.
    PaperN600,
    /// N=10k at the paper's density, schedule widened to the depth.
    ScaledN10k,
    /// N=600 with crash recovery, churn and a bursty corrupting channel.
    ChurnN600,
}

impl Workload {
    /// Every workload, in the order the `all` summary prints them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperN600,
        Workload::ScaledN10k,
        Workload::ChurnN600,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperN600 => "paper_n600",
            Workload::ScaledN10k => "scaled_n10k",
            Workload::ChurnN600 => "churn_n600",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Deployed nodes, base station included.
    pub fn nodes(self) -> usize {
        match self {
            Workload::PaperN600 | Workload::ChurnN600 => 600,
            Workload::ScaledN10k => 10_000,
        }
    }

    /// The leading sessions of a run whose simulated outcomes define the
    /// simulated metrics. A fixed count keeps those metrics a function of
    /// the seed alone, so a faster host or build runs more sessions
    /// without moving them; every timed loop runs at least this many.
    pub fn sim_window(self) -> usize {
        match self {
            Workload::PaperN600 => 50,
            Workload::ScaledN10k => 6,
            Workload::ChurnN600 => 10,
        }
    }
}

/// One session's generated inputs.
pub struct Setup {
    pub deployment: Deployment,
    pub config: IcpdaConfig,
    pub readings: Vec<u64>,
    pub fault_plan: FaultPlan,
    pub channel_plan: ChannelPlan,
    pub run_seed: u64,
}

/// A deployment at the paper's density: uniform, central base station,
/// paper radio range. At N=600 the field is exactly the paper's.
pub fn deployment(n: usize, seed: u64) -> Deployment {
    let region = if n == 600 {
        Region::paper_default()
    } else {
        let side = (n as f64 / PAPER_DENSITY).sqrt();
        Region::new(side, side)
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Deployment::uniform_random_with_central_bs(n, region, RADIO_RANGE, &mut rng)
}

/// Schedule depth for a deployment, as the fig21 scale study sets it:
/// the measured hop eccentricity from the base station plus slack,
/// never below the paper default of 20.
fn depth_for(dep: &Deployment) -> u16 {
    u16::try_from(dep.eccentricity(NodeId::new(0)))
        .expect("hop depth of a benchmark deployment fits in u16")
        .saturating_add(2)
        .max(20)
}

/// Widens the upstream schedule to `depth` levels at the paper's slot
/// length, as the fig21 scale study does.
fn widen_schedule(config: &mut IcpdaConfig, depth: u16) {
    if depth > config.schedule.max_depth {
        let slot = config.schedule.upstream_slot();
        config.schedule.max_depth = depth;
        config.schedule.upstream_epoch = slot * u64::from(depth);
    }
}

/// Builds the inputs of the session seeded `seed`.
pub fn setup(w: Workload, seed: u64) -> Setup {
    let n = w.nodes();
    let deployment = deployment(n, seed);
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    let mut fault_plan = FaultPlan::none();
    let mut channel_plan = ChannelPlan::none();
    match w {
        Workload::PaperN600 => {}
        Workload::ScaledN10k => widen_schedule(&mut config, depth_for(&deployment)),
        Workload::ChurnN600 => {
            config.crash_recovery = true;
            config.reliability = ReliabilityConfig::aggressive();
            config.rounds = CHURN_ROUNDS;
            let session = config.schedule.decision_time() * u64::from(CHURN_ROUNDS);
            fault_plan = FaultPlan::random_churn(n, CHURN_RATE, session, seed)
                .expect("CHURN_RATE is a probability");
            channel_plan = ChannelPlan::bursty(CHURN_LOSS.0, CHURN_LOSS.1)
                .and_then(|p| p.with_corruption(CHURN_CORRUPT))
                .expect("the churn channel parameters are valid");
        }
    }
    Setup {
        deployment,
        config,
        readings: agg::readings::count_readings(n),
        fault_plan,
        channel_plan,
        run_seed: seed.wrapping_mul(31).wrapping_add(7),
    }
}

impl Setup {
    /// Sensors eligible in each round: not the base station and alive at
    /// that round's sensing time, the population `IcpdaRun` takes its
    /// ground truth over.
    pub fn eligible_per_round(&self) -> Vec<u32> {
        (0..self.config.rounds)
            .map(|round| {
                let sensing = self.round_start(round) + self.config.schedule.shares_after;
                (1..self.deployment.len() as u32)
                    .filter(|&i| self.fault_plan.alive_at(NodeId::new(i), sensing))
                    .count() as u32
            })
            .collect()
    }

    /// Virtual start time of `round`.
    pub fn round_start(&self, round: u16) -> SimTime {
        SimTime::ZERO + self.config.schedule.decision_time() * u64::from(round)
    }

    /// The untraced session: exactly what a user of `IcpdaRun` runs.
    pub fn into_run(self) -> IcpdaRun {
        let mut run = IcpdaRun::new(self.deployment, self.config, self.readings, self.run_seed);
        if !self.fault_plan.is_empty() {
            run = run.with_fault_plan(self.fault_plan);
        }
        if !self.channel_plan.is_empty() {
            run = run.with_channel_plan(self.channel_plan);
        }
        run
    }
}

/// What one base-station decision produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionFacts {
    pub value_bits: u64,
    pub participants: u32,
    pub accepted: bool,
}

/// The simulated outcome of one session: what the reference pins and
/// what the traced run must reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionFacts {
    pub decisions: Vec<DecisionFacts>,
    pub frames: u64,
    pub bytes: u64,
    /// Virtual time from the final round's start to the base station's
    /// last upstream update, nanoseconds (0 when none arrived).
    pub latency_ns: u64,
}

impl SessionFacts {
    /// Facts of an `IcpdaRun` outcome.
    pub fn of(outcome: &IcpdaOutcome, final_round_start: SimTime) -> SessionFacts {
        SessionFacts::new(
            &outcome.decisions,
            outcome.total_frames,
            outcome.total_bytes,
            outcome.last_update,
            final_round_start,
        )
    }

    /// Facts from the raw parts any run exposes.
    pub fn new(
        decisions: &[icpda::BsDecision],
        frames: u64,
        bytes: u64,
        last_update: Option<SimTime>,
        final_round_start: SimTime,
    ) -> SessionFacts {
        SessionFacts {
            decisions: decisions
                .iter()
                .map(|d| DecisionFacts {
                    value_bits: d.value.to_bits(),
                    participants: d.participants,
                    accepted: d.accepted,
                })
                .collect(),
            frames,
            bytes,
            latency_ns: last_update.map_or(0, |t| {
                t.as_nanos().saturating_sub(final_round_start.as_nanos())
            }),
        }
    }
}

/// Why a decision failed; a decision can fail for several reasons.
pub const FAILURE_REASONS: [&str; 4] = [
    "rejected",
    "value_mismatch",
    "over_eligible",
    "reference_mismatch",
];

/// Checks every round of a session (`eligible` has one entry per round).
/// Returns, per round, a flag per entry of [`FAILURE_REASONS`]; the
/// reference check is left unset for the caller.
///
/// No workload configures an adversary, so a rejection is a failure, and
/// so is a round with no decision at all; the workloads aggregate COUNT,
/// so an accepted value must equal its participant count, and no decision
/// may count more sensors than were alive to sense in its round.
pub fn check(facts: &SessionFacts, eligible: &[u32]) -> Vec<[bool; 4]> {
    eligible
        .iter()
        .enumerate()
        .map(|(round, &eligible)| match facts.decisions.get(round) {
            None => [true, false, false, false],
            Some(d) => [
                !d.accepted,
                d.accepted && f64::from_bits(d.value_bits) != f64::from(d.participants),
                d.accepted && d.participants > eligible,
                false,
            ],
        })
        .collect()
}
