//! TAG behavioural edge cases beyond the unit tests: loss, late
//! reports, deep trees, degenerate networks.

use agg::function::AggFunction;
use agg::tag::{run_tag, run_tag_with_channel, TagConfig, TagNode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_sim::geometry::{Point, Region};
use wsn_sim::prelude::*;

fn line(n: usize, spacing: f64, range: f64) -> Deployment {
    let pts = (0..n)
        .map(|i| Point::new(i as f64 * spacing, 0.0))
        .collect();
    Deployment::from_positions(pts, Region::new(5_000.0, 10.0), range)
}

#[test]
fn deep_chain_aggregates_exactly() {
    // A 15-hop chain: the epoch schedule must cascade the partials all
    // the way up without loss on a clean channel.
    let n = 16;
    let dep = line(n, 10.0, 15.0);
    let readings: Vec<u64> = (0..n as u64).collect();
    let out = run_tag(
        dep,
        SimConfig::paper_default(),
        TagConfig::paper_default(AggFunction::Sum),
        &readings,
        3,
    );
    let truth: u64 = (1..n as u64).sum();
    assert_eq!(out.value, truth as f64);
    assert_eq!(out.participants as usize, n - 1);
}

#[test]
fn single_node_network_returns_zero() {
    let dep = line(1, 10.0, 15.0);
    let out = run_tag(
        dep,
        SimConfig::paper_default(),
        TagConfig::paper_default(AggFunction::Sum),
        &[0],
        3,
    );
    assert_eq!(out.value, 0.0);
    assert_eq!(out.participants, 0);
    assert_eq!(out.truth, 0.0);
}

#[test]
fn heavy_stochastic_loss_shears_the_tree_but_never_overcounts() {
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let dep =
        Deployment::uniform_random_with_central_bs(200, Region::paper_default(), 50.0, &mut rng);
    let readings = agg::readings::count_readings(200);
    let out = run_tag_with_channel(
        dep,
        SimConfig::paper_default(),
        TagConfig::paper_default(AggFunction::Count),
        &readings,
        4,
        &FaultPlan::none(),
        &ChannelPlan::none().with_iid_loss(0.20).unwrap(),
    );
    assert!(out.value <= 199.0);
    assert!(
        out.value > 20.0,
        "some subtrees must survive: {}",
        out.value
    );
}

#[test]
fn average_is_exact_on_clean_channels_regardless_of_subset() {
    // Uniform readings of a constant: AVG is invariant to which subset
    // participates, so even lossy trees decode the exact answer.
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let dep =
        Deployment::uniform_random_with_central_bs(150, Region::paper_default(), 50.0, &mut rng);
    let readings = vec![77u64; 150];
    let out = run_tag_with_channel(
        dep,
        SimConfig::paper_default(),
        TagConfig::paper_default(AggFunction::Average),
        &readings,
        4,
        &FaultPlan::none(),
        &ChannelPlan::none().with_iid_loss(0.10).unwrap(),
    );
    assert!(out.participants > 0);
    assert!((out.value - 77.0).abs() < 1e-9);
}

#[test]
fn late_reports_are_counted_not_absorbed() {
    // A node whose child reports after its own slot records the report
    // as late; the child's subtree is lost for the round.
    let dep = line(4, 10.0, 15.0);
    let readings = vec![0u64, 1, 1, 1];
    // Shrink the epoch so slots are tight but workable.
    let mut tag_config = TagConfig::paper_default(AggFunction::Count);
    tag_config.epoch = wsn_sim::SimDuration::from_millis(400);
    tag_config.max_depth = 4;
    let tag_config2 = tag_config;
    let readings2 = readings.clone();
    let mut sim = Simulator::new(dep, SimConfig::paper_default(), 5, move |id| {
        TagNode::new(tag_config2, id == NodeId::new(0), readings2[id.index()])
    });
    sim.run_until(SimTime::ZERO + tag_config.finish_time() + wsn_sim::SimDuration::from_secs(1));
    let bs = sim.app(NodeId::new(0));
    let result = bs.result().expect("finish timer fired");
    // Whatever arrived, the books must balance: collected + late-lost
    // subtrees ≤ total sensors.
    let late_total: u32 = sim.apps().map(|(_, a)| a.late_reports).sum();
    assert!(result.participants + late_total <= 3 + late_total);
    assert!(result.participants <= 3);
}

#[test]
fn bs_last_report_time_is_within_the_epoch() {
    let mut rng = ChaCha8Rng::seed_from_u64(10);
    let dep =
        Deployment::uniform_random_with_central_bs(150, Region::paper_default(), 50.0, &mut rng);
    let readings = agg::readings::count_readings(150);
    let tag_config = TagConfig::paper_default(AggFunction::Count);
    let out = run_tag(dep, SimConfig::paper_default(), tag_config, &readings, 4);
    let t = out.last_report_at.expect("reports arrived");
    assert!(t > SimTime::from_secs(2), "after formation: {t}");
    assert!(
        t < SimTime::ZERO + tag_config.finish_time(),
        "before the finish timer: {t}"
    );
}
