//! The channel: one model of everything that can befall a reception
//! after the MAC has admitted it.
//!
//! A [`ChannelPlan`] is the single description of stochastic reception
//! impairment beyond the MAC's collisions and half-duplex losses:
//!
//! * **Per-link degradation windows** — a directed link drops
//!   receptions with a fixed probability inside a time window; a window
//!   with loss 1.0 is a partition.
//! * **Bursty loss** — a per-receiver two-state Gilbert–Elliott chain:
//!   receptions in the *bad* state are lost with a (typically much)
//!   higher probability than in the *good* state, so losses arrive in
//!   bursts instead of independently.
//! * **Frame corruption** — a reception survives the air but arrives
//!   damaged; the link layer detects it and discards the frame,
//!   surfaced as [`LossCause::Corrupt`].
//! * **Independent loss** — either i.i.d. loss at a fixed probability
//!   (the classic ns-2 "uniform error model") or the distance-dependent
//!   gray zone `edge_loss · (d/r)^alpha`: near-perfect links close by,
//!   lossy ones near the edge of the radio range.
//! * **Bounded reordering** — a reception is held back and delivered
//!   after a bounded extra delay, letting later frames overtake it.
//! * **Duplication** — a reception is delivered twice (the second copy
//!   immediately after the first), as produced by real link-layer ARQ
//!   when an ACK is lost.
//!
//! # Draw order and streams
//!
//! The engine asks the channel once per admitted reception
//! (`Channel::fate`), which runs the terms in this fixed order and stops
//! at the first that loses or holds the frame:
//!
//! 1. link window — 1 draw from the channel RNG;
//! 2. Gilbert–Elliott chain — 2 channel draws (transition, then loss);
//! 3. corruption — 1 channel draw, plus 1 `u32` draw when it strikes;
//! 4. i.i.d. or gray-zone loss — 1 draw from the *receiver's* node RNG;
//! 5. reordering — 2 channel draws when it strikes (1 otherwise);
//! 6. duplication — 1 channel draw.
//!
//! Terms 1, 3, 5 and 6 are skipped without a draw while their
//! probability is zero. Terms 2 and 4 draw on every reception that
//! reaches them once they are added, even at zero loss (an edge loss of
//! 0 still draws). The channel RNG is a dedicated stream, so channel
//! impairments never perturb the per-node application/MAC streams; only
//! the independent-loss term draws from the receiver's node stream. Like
//! [`FaultPlan`](crate::fault::FaultPlan), a plan is built up front and
//! is completely deterministic, and an **empty plan draws nothing and
//! schedules nothing**.

use crate::app::node_rng;
use crate::ids::NodeId;
use crate::metrics::LossCause;
use crate::time::{SimDuration, SimTime};
use crate::topology::Deployment;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::fmt;

/// A rejected channel-plan parameter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChannelPlanError {
    /// A probability outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Which parameter was rejected.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A bursty-loss rate of 1.0 or more (the Gilbert–Elliott chain
    /// could never leave the bad state).
    RateTooHigh(f64),
    /// A link-degradation window whose end does not lie after its start.
    EmptyWindow {
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// A reordering probability with a zero hold-back window.
    ZeroReorderWindow,
    /// A bursty-loss burstiness of 1.0 or more (the Gilbert–Elliott chain
    /// could never enter the bad state, so the plan would lose nothing).
    BurstinessTooHigh(f64),
    /// A negative or NaN gray-zone exponent.
    NegativeExponent(f64),
}

impl fmt::Display for ChannelPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelPlanError::ProbabilityOutOfRange { what, value } => {
                write!(f, "{what} probability {value} is outside [0, 1]")
            }
            ChannelPlanError::RateTooHigh(rate) => {
                write!(f, "bursty loss rate {rate} must be below 1")
            }
            ChannelPlanError::EmptyWindow { from, until } => write!(
                f,
                "link window [{}, {}) is empty",
                from.as_nanos(),
                until.as_nanos()
            ),
            ChannelPlanError::ZeroReorderWindow => {
                write!(f, "reordering needs a non-zero hold-back window")
            }
            ChannelPlanError::BurstinessTooHigh(burstiness) => {
                write!(f, "burstiness {burstiness} must be below 1")
            }
            ChannelPlanError::NegativeExponent(alpha) => {
                write!(f, "gray-zone exponent {alpha} is negative")
            }
        }
    }
}

impl std::error::Error for ChannelPlanError {}

fn probability(what: &'static str, value: f64) -> Result<f64, ChannelPlanError> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(ChannelPlanError::ProbabilityOutOfRange { what, value })
    }
}

/// Parameters of a two-state Gilbert–Elliott loss chain. State
/// transitions are sampled once per reception at the receiver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Probability of moving good → bad at a reception.
    pub p_gb: f64,
    /// Probability of moving bad → good at a reception.
    pub p_bg: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Long-run fraction of receptions spent in the bad state.
    #[must_use]
    pub fn steady_state_bad(&self) -> f64 {
        if self.p_gb + self.p_bg == 0.0 {
            0.0
        } else {
            self.p_gb / (self.p_gb + self.p_bg)
        }
    }

    /// Long-run average loss rate of the chain.
    #[must_use]
    pub fn mean_loss(&self) -> f64 {
        let bad = self.steady_state_bad();
        bad * self.loss_bad + (1.0 - bad) * self.loss_good
    }
}

/// The independent per-reception loss term: one draw from the
/// receiver's node RNG on every reception that reaches it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum LossTerm {
    /// Each reception is lost with this probability.
    Iid(f64),
    /// Loss probability `edge_loss · (d/r)^alpha` for a reception over
    /// distance `d` with radio range `r`.
    GrayZone {
        /// Exponent shaping the gray zone (higher = sharper edge).
        alpha: f64,
        /// Loss probability at the very edge of the range.
        edge_loss: f64,
    },
}

/// One directed-link degradation window: receptions on the link are
/// dropped with probability `loss` while `from <= now < until`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Drop probability inside the window (1.0 = partition).
    pub loss: f64,
}

/// A deterministic plan of channel impairments for one run. See the
/// [module docs](self) for the model; build plans with the validating
/// combinators, then install with
/// [`Simulator::set_channel_plan`](crate::sim::Simulator::set_channel_plan).
///
/// # Examples
///
/// 20 % bursty loss plus occasional corruption, and a gray zone at the
/// edge of the radio range:
///
/// ```
/// use wsn_sim::channel::ChannelPlan;
///
/// let plan = ChannelPlan::bursty(0.2, 0.6)
///     .unwrap()
///     .with_corruption(0.01)
///     .unwrap()
///     .with_gray_zone(4.0, 0.3)
///     .unwrap();
/// assert!(!plan.is_empty());
/// assert!((plan.gilbert_elliott().unwrap().mean_loss() - 0.2).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChannelPlan {
    ge: Option<GilbertElliott>,
    corrupt: f64,
    loss: Option<LossTerm>,
    duplicate: f64,
    reorder: f64,
    reorder_window: SimDuration,
    links: BTreeMap<(NodeId, NodeId), Vec<LinkWindow>>,
}

impl ChannelPlan {
    /// The empty plan: no impairments, no RNG draws, byte-identical runs.
    #[must_use]
    pub fn none() -> Self {
        ChannelPlan::default()
    }

    /// Whether the plan holds no impairment at all. The engine skips
    /// every channel hook (and every RNG draw) for an empty plan.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ge.is_none()
            && self.loss.is_none()
            && self.corrupt == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.links.is_empty()
    }

    /// A Gilbert–Elliott bursty-loss plan with long-run loss `rate` and
    /// burst intensity `burstiness` in `[0, 1)`. The bad state always
    /// loses and the good state never does; `burstiness` stretches the
    /// expected bad-state dwell to `1 / (1 - burstiness)` receptions, so
    /// 0 degenerates to i.i.d. loss at `rate` and values near 1 produce
    /// long outage bursts at the same average rate.
    ///
    /// # Errors
    ///
    /// [`ChannelPlanError::RateTooHigh`] if `rate >= 1`;
    /// [`ChannelPlanError::BurstinessTooHigh`] if `burstiness >= 1` (the
    /// chain would never leave the good state);
    /// [`ChannelPlanError::ProbabilityOutOfRange`] if either parameter
    /// leaves `[0, 1]`.
    pub fn bursty(rate: f64, burstiness: f64) -> Result<Self, ChannelPlanError> {
        let rate = probability("bursty loss rate", rate)?;
        let burstiness = probability("burstiness", burstiness)?;
        if rate >= 1.0 {
            return Err(ChannelPlanError::RateTooHigh(rate));
        }
        if burstiness >= 1.0 {
            return Err(ChannelPlanError::BurstinessTooHigh(burstiness));
        }
        if rate == 0.0 {
            return Ok(ChannelPlan::none());
        }
        // Steady state: p_gb / (p_gb + p_bg) = rate, with the bad-state
        // dwell time set by burstiness.
        let p_bg = 1.0 - burstiness;
        let p_gb = rate * p_bg / (1.0 - rate);
        Ok(ChannelPlan {
            ge: Some(GilbertElliott {
                p_gb,
                p_bg,
                loss_good: 0.0,
                loss_bad: 1.0,
            }),
            ..ChannelPlan::default()
        })
    }

    /// Installs an explicit Gilbert–Elliott chain.
    ///
    /// # Errors
    ///
    /// [`ChannelPlanError::ProbabilityOutOfRange`] if any parameter
    /// leaves `[0, 1]`.
    pub fn with_gilbert_elliott(mut self, ge: GilbertElliott) -> Result<Self, ChannelPlanError> {
        probability("good->bad transition", ge.p_gb)?;
        probability("bad->good transition", ge.p_bg)?;
        probability("good-state loss", ge.loss_good)?;
        probability("bad-state loss", ge.loss_bad)?;
        self.ge = Some(ge);
        Ok(self)
    }

    /// Adds per-reception frame corruption with probability `p`.
    ///
    /// # Errors
    ///
    /// [`ChannelPlanError::ProbabilityOutOfRange`] unless `0 <= p <= 1`.
    pub fn with_corruption(mut self, p: f64) -> Result<Self, ChannelPlanError> {
        self.corrupt = probability("corruption", p)?;
        Ok(self)
    }

    /// Adds i.i.d. loss: each reception is independently lost with
    /// probability `p`, drawn from the receiver's node RNG. Replaces any
    /// earlier i.i.d. or gray-zone term.
    ///
    /// # Errors
    ///
    /// [`ChannelPlanError::ProbabilityOutOfRange`] unless `0 <= p <= 1`.
    pub fn with_iid_loss(mut self, p: f64) -> Result<Self, ChannelPlanError> {
        self.loss = Some(LossTerm::Iid(probability("loss", p)?));
        Ok(self)
    }

    /// Adds distance-dependent gray-zone loss: a reception over distance
    /// `d` with radio range `r` is lost with probability
    /// `edge_loss · (d/r)^alpha`, drawn from the receiver's node RNG.
    /// Replaces any earlier i.i.d. or gray-zone term.
    ///
    /// # Errors
    ///
    /// [`ChannelPlanError::NegativeExponent`] if `alpha` is negative or
    /// NaN; [`ChannelPlanError::ProbabilityOutOfRange`] unless
    /// `0 <= edge_loss <= 1`.
    pub fn with_gray_zone(mut self, alpha: f64, edge_loss: f64) -> Result<Self, ChannelPlanError> {
        if alpha.is_nan() || alpha < 0.0 {
            return Err(ChannelPlanError::NegativeExponent(alpha));
        }
        let edge_loss = probability("loss", edge_loss)?;
        self.loss = Some(LossTerm::GrayZone { alpha, edge_loss });
        Ok(self)
    }

    /// Adds per-reception duplication with probability `p`.
    ///
    /// # Errors
    ///
    /// [`ChannelPlanError::ProbabilityOutOfRange`] unless `0 <= p <= 1`.
    pub fn with_duplication(mut self, p: f64) -> Result<Self, ChannelPlanError> {
        self.duplicate = probability("duplication", p)?;
        Ok(self)
    }

    /// Adds bounded reordering: each reception is independently held
    /// back with probability `p` for a uniform extra delay in
    /// `(0, window]`, letting frames sent later overtake it.
    ///
    /// # Errors
    ///
    /// [`ChannelPlanError::ProbabilityOutOfRange`] unless `0 <= p <= 1`;
    /// [`ChannelPlanError::ZeroReorderWindow`] if `p > 0` with a zero
    /// `window`.
    pub fn with_reordering(
        mut self,
        p: f64,
        window: SimDuration,
    ) -> Result<Self, ChannelPlanError> {
        self.reorder = probability("reordering", p)?;
        if self.reorder > 0.0 && window.is_zero() {
            return Err(ChannelPlanError::ZeroReorderWindow);
        }
        self.reorder_window = window;
        Ok(self)
    }

    /// Degrades the directed link `src -> dst` inside `[from, until)`:
    /// receptions drop with probability `loss` (1.0 partitions the
    /// link). Windows on the same link stack; the worst one applies.
    ///
    /// # Errors
    ///
    /// [`ChannelPlanError::EmptyWindow`] if `until <= from`;
    /// [`ChannelPlanError::ProbabilityOutOfRange`] unless
    /// `0 <= loss <= 1`.
    pub fn degrade_link(
        mut self,
        src: NodeId,
        dst: NodeId,
        from: SimTime,
        until: SimTime,
        loss: f64,
    ) -> Result<Self, ChannelPlanError> {
        let loss = probability("link degradation", loss)?;
        if until <= from {
            return Err(ChannelPlanError::EmptyWindow { from, until });
        }
        self.links
            .entry((src, dst))
            .or_default()
            .push(LinkWindow { from, until, loss });
        Ok(self)
    }

    /// The installed Gilbert–Elliott chain, if any.
    #[must_use]
    pub fn gilbert_elliott(&self) -> Option<&GilbertElliott> {
        self.ge.as_ref()
    }

    /// Drop probability of the directed link `src -> dst` at `at` (the
    /// worst of all matching degradation windows; 0.0 when none match).
    fn link_loss(&self, src: NodeId, dst: NodeId, at: SimTime) -> f64 {
        match self.links.get(&(src, dst)) {
            None => 0.0,
            Some(windows) => windows
                .iter()
                .filter(|w| w.from <= at && at < w.until)
                .map(|w| w.loss)
                .fold(0.0, f64::max),
        }
    }

    /// Samples the Gilbert–Elliott chain for one reception: `bad` is the
    /// receiver's current state, updated in place; returns whether the
    /// reception is lost. Two draws, always — the chain's RNG use never
    /// depends on its state.
    fn ge_drops<R: Rng + ?Sized>(&self, rng: &mut R, bad: &mut bool) -> bool {
        let Some(ge) = self.ge else {
            return false;
        };
        let flip = rng.gen::<f64>();
        if *bad {
            if flip < ge.p_bg {
                *bad = false;
            }
        } else if flip < ge.p_gb {
            *bad = true;
        }
        let loss = if *bad { ge.loss_bad } else { ge.loss_good };
        rng.gen::<f64>() < loss
    }
}

/// What the channel does with one admitted reception.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fate {
    /// The reception is lost, with this cause.
    Lost(LossCause),
    /// The reception survives but is held back for reordering, to be
    /// delivered after this extra delay.
    Held(SimDuration),
    /// The reception is delivered, back to back when duplicated.
    Deliver {
        /// Number of deliveries: 1, or 2 for a duplicated reception.
        copies: u32,
    },
}

/// The engine's channel state: the installed plan, the dedicated channel
/// RNG stream and each receiver's Gilbert–Elliott state.
pub(crate) struct Channel {
    plan: ChannelPlan,
    /// Dedicated stream for every channel draw except the independent
    /// loss term's (which uses the receiver's node RNG).
    rng: ChaCha8Rng,
    /// Per-receiver Gilbert–Elliott state (true = bad/bursty state).
    ge_bad: Vec<bool>,
}

impl Channel {
    /// An impairment-free channel for `nodes` receivers; the channel RNG
    /// is derived from the run `seed`.
    pub(crate) fn new(seed: u64, nodes: usize) -> Self {
        Channel {
            plan: ChannelPlan::none(),
            rng: ChaCha8Rng::seed_from_u64(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC4A2_2E10_5EED_0002,
            ),
            ge_bad: vec![false; nodes],
        }
    }

    /// Installs `plan` for the rest of the run.
    pub(crate) fn set_plan(&mut self, plan: ChannelPlan) {
        self.plan = plan;
    }

    /// Decides the fate of the reception of a frame from `src` at `dst`
    /// at time `now`, running the plan's terms in the order given in the
    /// [module docs](self). `rx_rng` is the receiver's node RNG slot,
    /// materialised from `seed` only if the independent-loss term draws.
    pub(crate) fn fate(
        &mut self,
        src: NodeId,
        dst: NodeId,
        now: SimTime,
        deployment: &Deployment,
        rx_rng: &mut Option<ChaCha8Rng>,
        seed: u64,
    ) -> Fate {
        let plan = &self.plan;
        if plan.is_empty() {
            return Fate::Deliver { copies: 1 };
        }
        let link = plan.link_loss(src, dst, now);
        if link > 0.0 && self.rng.gen::<f64>() < link {
            return Fate::Lost(LossCause::Stochastic);
        }
        if plan.ge.is_some() && plan.ge_drops(&mut self.rng, &mut self.ge_bad[dst.index()]) {
            return Fate::Lost(LossCause::Stochastic);
        }
        if plan.corrupt > 0.0 && self.rng.gen::<f64>() < plan.corrupt {
            // The error syndrome is never inspected; the draw keeps the
            // channel stream (fig20, the churn golden fixture) unchanged.
            let _syndrome = self.rng.gen::<u32>();
            return Fate::Lost(LossCause::Corrupt);
        }
        if let Some(term) = plan.loss {
            // Receivers are unit-disk neighbours, so `d/r` lies in [0, 1]
            // and, with the builders' validation, so does `p`.
            let p = match term {
                LossTerm::Iid(p) => p,
                LossTerm::GrayZone { alpha, edge_loss } => {
                    let d = deployment
                        .position(dst)
                        .distance_to(deployment.position(src));
                    edge_loss * (d / deployment.radio_range()).powf(alpha)
                }
            };
            if rx_rng
                .get_or_insert_with(|| node_rng(seed, dst.index()))
                .gen_bool(p)
            {
                return Fate::Lost(LossCause::Stochastic);
            }
        }
        if plan.reorder > 0.0 && self.rng.gen::<f64>() < plan.reorder {
            let window = plan.reorder_window.as_nanos();
            return Fate::Held(SimDuration::from_nanos(self.rng.gen_range(1..=window)));
        }
        if plan.duplicate > 0.0 && self.rng.gen::<f64>() < plan.duplicate {
            return Fate::Deliver { copies: 2 };
        }
        Fate::Deliver { copies: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn empty_plan_is_empty() {
        assert!(ChannelPlan::none().is_empty());
        assert!(ChannelPlan::default().is_empty());
        assert!(ChannelPlan::bursty(0.0, 0.5).unwrap().is_empty());
    }

    #[test]
    fn any_impairment_makes_the_plan_non_empty() {
        assert!(!ChannelPlan::bursty(0.2, 0.5).unwrap().is_empty());
        assert!(!ChannelPlan::none().with_iid_loss(0.1).unwrap().is_empty());
        assert!(!ChannelPlan::none()
            .with_gray_zone(2.0, 0.3)
            .unwrap()
            .is_empty());
        assert!(!ChannelPlan::none().with_corruption(0.1).unwrap().is_empty());
        assert!(!ChannelPlan::none()
            .with_duplication(0.1)
            .unwrap()
            .is_empty());
        assert!(!ChannelPlan::none()
            .with_reordering(0.1, SimDuration::from_millis(10))
            .unwrap()
            .is_empty());
        assert!(!ChannelPlan::none()
            .degrade_link(
                NodeId::new(1),
                NodeId::new(2),
                SimTime::ZERO,
                SimTime::from_secs(1),
                1.0,
            )
            .unwrap()
            .is_empty());
    }

    #[test]
    fn bursty_hits_the_requested_mean_loss() {
        for &(rate, burstiness) in &[(0.1, 0.0), (0.2, 0.6), (0.3, 0.9)] {
            let plan = ChannelPlan::bursty(rate, burstiness).unwrap();
            let ge = plan.gilbert_elliott().unwrap();
            assert!(
                (ge.mean_loss() - rate).abs() < 1e-12,
                "mean loss {} for rate {rate}",
                ge.mean_loss()
            );
            assert_eq!(ge.loss_bad, 1.0);
            assert_eq!(ge.loss_good, 0.0);
        }
    }

    #[test]
    fn bursty_zero_burstiness_is_iid() {
        // With burstiness 0 the chain forgets its state every reception:
        // p(bad at next) is `rate` regardless of the current state.
        let plan = ChannelPlan::bursty(0.25, 0.0).unwrap();
        let ge = plan.gilbert_elliott().unwrap();
        assert!((ge.p_bg - 1.0).abs() < 1e-12);
        assert!((ge.p_gb - 0.25 / 0.75).abs() < 1e-12);
    }

    #[test]
    fn ge_sampling_matches_mean_loss() {
        let plan = ChannelPlan::bursty(0.2, 0.6).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut bad = false;
        let n = 200_000;
        let losses = (0..n).filter(|_| plan.ge_drops(&mut rng, &mut bad)).count();
        let rate = losses as f64 / f64::from(n);
        assert!((rate - 0.2).abs() < 0.01, "sampled loss rate {rate}");
    }

    #[test]
    fn ge_losses_are_bursty() {
        // Burstiness 0.9 stretches bad dwells to ~10 receptions: count
        // loss runs and check their mean length is well above i.i.d.
        let plan = ChannelPlan::bursty(0.2, 0.9).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut bad = false;
        let outcomes: Vec<bool> = (0..100_000)
            .map(|_| plan.ge_drops(&mut rng, &mut bad))
            .collect();
        let mut runs = 0u32;
        let mut losses = 0u32;
        let mut in_run = false;
        for &lost in &outcomes {
            if lost {
                losses += 1;
                if !in_run {
                    runs += 1;
                }
            }
            in_run = lost;
        }
        let mean_run = f64::from(losses) / f64::from(runs);
        assert!(mean_run > 4.0, "mean loss-burst length {mean_run}");
    }

    #[test]
    fn link_windows_apply_in_time_and_direction() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let plan = ChannelPlan::none()
            .degrade_link(a, b, SimTime::from_secs(1), SimTime::from_secs(2), 1.0)
            .unwrap()
            .degrade_link(a, b, SimTime::from_secs(1), SimTime::from_secs(3), 0.5)
            .unwrap();
        assert_eq!(plan.link_loss(a, b, SimTime::ZERO), 0.0, "before window");
        assert_eq!(plan.link_loss(a, b, SimTime::from_secs(1)), 1.0, "worst");
        assert_eq!(plan.link_loss(a, b, SimTime::from_millis(2500)), 0.5);
        assert_eq!(plan.link_loss(a, b, SimTime::from_secs(3)), 0.0, "after");
        assert_eq!(plan.link_loss(b, a, SimTime::from_secs(1)), 0.0, "directed");
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(matches!(
            ChannelPlan::bursty(1.0, 0.5),
            Err(ChannelPlanError::RateTooHigh(_))
        ));
        // Burstiness 1 would pin the chain in the good state: zero loss.
        assert!(matches!(
            ChannelPlan::bursty(0.2, 1.0),
            Err(ChannelPlanError::BurstinessTooHigh(_))
        ));
        assert!(matches!(
            ChannelPlan::bursty(-0.1, 0.5),
            Err(ChannelPlanError::ProbabilityOutOfRange { .. })
        ));
        assert!(matches!(
            ChannelPlan::bursty(0.2, 1.5),
            Err(ChannelPlanError::ProbabilityOutOfRange { .. })
        ));
        assert!(ChannelPlan::none().with_corruption(1.5).is_err());
        assert!(ChannelPlan::none().with_duplication(-0.5).is_err());
        assert!(matches!(
            ChannelPlan::none().with_reordering(0.5, SimDuration::ZERO),
            Err(ChannelPlanError::ZeroReorderWindow)
        ));
        assert!(matches!(
            ChannelPlan::none().degrade_link(
                NodeId::new(1),
                NodeId::new(2),
                SimTime::from_secs(2),
                SimTime::from_secs(2),
                1.0,
            ),
            Err(ChannelPlanError::EmptyWindow { .. })
        ));
    }

    #[test]
    fn error_display_names_the_offender() {
        assert!(ChannelPlanError::RateTooHigh(1.0).to_string().contains('1'));
        assert!(ChannelPlanError::ProbabilityOutOfRange {
            what: "corruption",
            value: 1.5
        }
        .to_string()
        .contains("corruption"));
        assert!(ChannelPlanError::ZeroReorderWindow
            .to_string()
            .contains("window"));
        let e = ChannelPlanError::EmptyWindow {
            from: SimTime::from_secs(2),
            until: SimTime::from_secs(2),
        };
        assert!(e.to_string().contains("empty"));
        assert!(ChannelPlanError::BurstinessTooHigh(1.0)
            .to_string()
            .contains("burstiness 1"));
    }

    #[test]
    fn loss_error_display_names_the_offender() {
        assert!(ChannelPlanError::ProbabilityOutOfRange {
            what: "loss",
            value: 1.5
        }
        .to_string()
        .contains("1.5"));
        assert!(ChannelPlanError::NegativeExponent(-2.0)
            .to_string()
            .contains("-2"));
    }

    /// Two nodes `distance` apart, radio range 50.
    fn pair(distance: f64) -> Deployment {
        use crate::geometry::{Point, Region};
        Deployment::from_positions(
            vec![Point::new(0.0, 0.0), Point::new(distance, 0.0)],
            Region::new(100.0, 100.0),
            50.0,
        )
    }

    /// Fraction of `n` receptions 0 -> 1 over `dep` that `plan` loses,
    /// and whether the receiver's RNG was materialised.
    fn loss_rate(plan: ChannelPlan, dep: &Deployment, n: u32) -> (f64, bool) {
        let mut channel = Channel::new(9, dep.len());
        channel.set_plan(plan);
        let mut rx_rng = None;
        let lost = (0..n)
            .filter(|_| {
                let fate = channel.fate(
                    NodeId::new(0),
                    NodeId::new(1),
                    SimTime::ZERO,
                    dep,
                    &mut rx_rng,
                    9,
                );
                fate == Fate::Lost(LossCause::Stochastic)
            })
            .count();
        (lost as f64 / f64::from(n), rx_rng.is_some())
    }

    #[test]
    fn loss_none_never_drops() {
        // No loss term: every reception is delivered and the receiver's
        // RNG is never touched.
        let (rate, drew) = loss_rate(ChannelPlan::none(), &pair(50.0), 100);
        assert_eq!(rate, 0.0);
        assert!(!drew);
        // A term at zero probability still draws, once added.
        let plan = ChannelPlan::none().with_iid_loss(0.0).unwrap();
        let (rate, drew) = loss_rate(plan, &pair(50.0), 100);
        assert_eq!(rate, 0.0);
        assert!(drew);
    }

    #[test]
    fn loss_iid_rate_is_close() {
        let plan = ChannelPlan::none().with_iid_loss(0.3).unwrap();
        let (rate, _) = loss_rate(plan, &pair(25.0), 20_000);
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn loss_extremes() {
        let never = ChannelPlan::none().with_iid_loss(0.0).unwrap();
        assert_eq!(loss_rate(never, &pair(25.0), 100).0, 0.0);
        let always = ChannelPlan::none().with_iid_loss(1.0).unwrap();
        assert_eq!(loss_rate(always, &pair(25.0), 100).0, 1.0);
    }

    #[test]
    fn distance_dependent_gray_zone() {
        let plan = ChannelPlan::none().with_gray_zone(4.0, 0.5).unwrap();
        let near = loss_rate(plan.clone(), &pair(10.0), 20_000).0;
        let edge = loss_rate(plan, &pair(50.0), 20_000).0;
        assert!(near < 0.01, "near links are near-perfect: {near}");
        assert!((edge - 0.5).abs() < 0.02, "edge loss honoured: {edge}");
    }

    #[test]
    fn distance_dependent_zero_distance_never_drops() {
        let plan = ChannelPlan::none().with_gray_zone(2.0, 1.0).unwrap();
        assert_eq!(loss_rate(plan.clone(), &pair(0.0), 100).0, 0.0);
        assert_eq!(loss_rate(plan, &pair(50.0), 100).0, 1.0, "edge");
    }

    #[test]
    fn validated_constructors_reject_bad_parameters() {
        assert_eq!(
            ChannelPlan::none().with_iid_loss(1.5),
            Err(ChannelPlanError::ProbabilityOutOfRange {
                what: "loss",
                value: 1.5
            })
        );
        assert!(ChannelPlan::none().with_iid_loss(-0.1).is_err());
        assert!(ChannelPlan::none().with_iid_loss(f64::NAN).is_err());
        assert_eq!(
            ChannelPlan::none().with_gray_zone(-1.0, 0.5),
            Err(ChannelPlanError::NegativeExponent(-1.0))
        );
        assert!(matches!(
            ChannelPlan::none().with_gray_zone(f64::NAN, 0.5),
            Err(ChannelPlanError::NegativeExponent(_))
        ));
        assert!(matches!(
            ChannelPlan::none().with_gray_zone(2.0, 1.5),
            Err(ChannelPlanError::ProbabilityOutOfRange { .. })
        ));
    }

    #[test]
    fn validated_constructors_accept_good_parameters() {
        let iid = ChannelPlan::none().with_iid_loss(0.25).unwrap();
        assert_eq!(iid.loss, Some(LossTerm::Iid(0.25)));
        assert!(!iid.is_empty());
        assert!(ChannelPlan::none().with_iid_loss(0.0).is_ok());
        assert!(ChannelPlan::none().with_iid_loss(1.0).is_ok());
        let gray = ChannelPlan::none().with_gray_zone(4.0, 0.5).unwrap();
        assert_eq!(
            gray.loss,
            Some(LossTerm::GrayZone {
                alpha: 4.0,
                edge_loss: 0.5
            })
        );
        assert!(!gray.is_empty());
        // A later term replaces an earlier one.
        let replaced = gray.with_iid_loss(0.1).unwrap();
        assert_eq!(replaced.loss, Some(LossTerm::Iid(0.1)));
    }
}
