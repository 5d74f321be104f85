//! Cross-crate integration: simulator + crypto + aggregation + protocol
//! + analysis working together, checked against each other.

use icpda_suite::agg::{self, tag, AggFunction};
use icpda_suite::icpda::{evaluate_disclosure, IcpdaConfig, IcpdaRun};
use icpda_suite::icpda_analysis as analysis;
use icpda_suite::wsn_crypto::LinkAdversary;
use icpda_suite::wsn_sim::geometry::Region;
use icpda_suite::wsn_sim::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn deployment(n: usize, seed: u64) -> Deployment {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Deployment::uniform_random_with_central_bs(n, Region::paper_default(), 50.0, &mut rng)
}

#[test]
fn tag_and_icpda_agree_on_the_aggregate() {
    // Same deployment, same readings: both protocols must land near the
    // same SUM (each loses a few nodes, never invents any).
    let n = 400;
    let mut rng = ChaCha8Rng::seed_from_u64(50);
    let readings = agg::readings::uniform_readings(n, 10, 50, &mut rng);
    let truth: u64 = readings[1..].iter().sum();

    let t = tag::run_tag(
        deployment(n, 1),
        SimConfig::paper_default(),
        tag::TagConfig::paper_default(AggFunction::Sum),
        &readings,
        2,
    );
    let i = IcpdaRun::new(
        deployment(n, 1),
        IcpdaConfig::paper_default(AggFunction::Sum),
        readings,
        2,
    )
    .run();

    assert!(t.value <= truth as f64 + 0.5, "TAG never over-counts");
    assert!(i.value <= truth as f64 + 0.5, "iCPDA never over-counts");
    assert!(t.value >= 0.9 * truth as f64);
    assert!(i.value >= 0.85 * truth as f64);
    let diff = (t.value - i.value).abs() / truth as f64;
    assert!(diff < 0.15, "protocols diverge by {diff}");
}

#[test]
fn participation_respects_the_analysis_bound() {
    // The closed-form orphan bound is an upper bound on structural
    // non-participation (it ignores the merge step, which only helps);
    // the measured participation additionally loses clusters to channel
    // effects, so compare with slack on the loss side only.
    let n = 500;
    let out = IcpdaRun::new(
        deployment(n, 3),
        IcpdaConfig::paper_default(AggFunction::Count),
        agg::readings::count_readings(n),
        4,
    )
    .run();
    let degree = analysis::expected_degree(n, Region::paper_default(), 50.0);
    let bound = analysis::participation_bound(0.25, degree);
    let measured = out.included as f64 / (n - 1) as f64;
    assert!(
        measured > bound - 0.12,
        "measured {measured} too far below bound {bound}"
    );
}

#[test]
fn measured_disclosure_tracks_theory_mixture() {
    let out = IcpdaRun::new(
        deployment(600, 5),
        IcpdaConfig::paper_default(AggFunction::Count),
        agg::readings::count_readings(600),
        6,
    )
    .run();
    let p_x = 0.3;
    let theory = analysis::mixed_disclosure(p_x, &out.cluster_sizes);
    let mut measured = Vec::new();
    for seed in 0..40u64 {
        let adv = LinkAdversary::new(p_x, seed);
        measured.push(evaluate_disclosure(&out.rosters, &adv).probability());
    }
    let mc = measured.iter().sum::<f64>() / measured.len() as f64;
    // Theory uses idealized roster sizes; Monte Carlo uses real rosters.
    assert!(
        (mc - theory).abs() < theory.max(0.002) * 1.0 + 0.002,
        "Monte-Carlo {mc} vs mixture {theory}"
    );
}

#[test]
fn variance_query_end_to_end() {
    let n = 300;
    let mut rng = ChaCha8Rng::seed_from_u64(51);
    let readings = agg::readings::uniform_readings(n, 100, 200, &mut rng);
    let out = IcpdaRun::new(
        deployment(n, 9),
        IcpdaConfig::paper_default(AggFunction::Variance),
        readings.clone(),
        12,
    )
    .run();
    assert!(out.accepted);
    let truth = AggFunction::Variance.ground_truth(&readings[1..]);
    // Variance of uniform [100, 200] is ~833; the subset estimate should
    // be in the right ballpark.
    assert!(out.value > 0.0);
    assert!(
        (out.value - truth).abs() / truth < 0.25,
        "variance {} vs truth {truth}",
        out.value
    );
}

#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let out = IcpdaRun::new(
            deployment(250, 7),
            IcpdaConfig::paper_default(AggFunction::Sum),
            agg::readings::count_readings(250),
            8,
        )
        .run();
        (
            out.value.to_bits(),
            out.total_bytes,
            out.heads,
            out.cluster_sizes.clone(),
            out.rosters.len(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn overhead_ratio_matches_the_models_order_of_magnitude() {
    let n = 400;
    let readings = agg::readings::count_readings(n);
    let t = tag::run_tag(
        deployment(n, 2),
        SimConfig::paper_default(),
        tag::TagConfig::paper_default(AggFunction::Count),
        &readings,
        3,
    );
    let i = IcpdaRun::new(
        deployment(n, 2),
        IcpdaConfig::paper_default(AggFunction::Count),
        readings,
        3,
    )
    .run();
    let frame_ratio = i.total_frames as f64 / t.total_frames as f64;
    let model = analysis::predicted_ratio(i.mean_cluster_size().max(2.0));
    assert!(
        frame_ratio > model * 0.7 && frame_ratio < model * 2.0,
        "measured frame ratio {frame_ratio} vs model {model}"
    );
}

#[test]
fn tag_byte_model_matches_measurement() {
    let n = 400;
    let readings = agg::readings::count_readings(n);
    let t = tag::run_tag(
        deployment(n, 6),
        SimConfig::paper_default(),
        tag::TagConfig::paper_default(AggFunction::Count),
        &readings,
        7,
    );
    let model = analysis::overhead::tag_bytes(n, 1, 16);
    let measured = t.total_bytes as f64;
    // The model assumes every node joins and reports; loss trims a few
    // percent off the measured number.
    assert!(
        measured <= model * 1.01 && measured >= model * 0.9,
        "measured {measured} vs model {model}"
    );
}

#[test]
fn measured_latency_matches_the_schedule_model() {
    let n = 400;
    let readings = agg::readings::count_readings(n);
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let out = IcpdaRun::new(deployment(n, 2), config, readings.clone(), 3).run();
    let model = analysis::icpda_result_time(&config.schedule).as_secs_f64();
    let measured = out.last_update.expect("reports arrived").as_secs_f64();
    assert!(
        (measured - model).abs() < 1.5,
        "measured {measured} vs model {model}"
    );
    let t = tag::run_tag(
        deployment(n, 2),
        SimConfig::paper_default(),
        tag::TagConfig::paper_default(AggFunction::Count),
        &readings,
        3,
    );
    let tag_model = analysis::tag_result_time(
        wsn_sim::SimDuration::from_secs(2),
        wsn_sim::SimDuration::from_secs(10),
        20,
    )
    .as_secs_f64();
    let tag_measured = t.last_report_at.expect("reports arrived").as_secs_f64();
    assert!(
        (tag_measured - tag_model).abs() < 1.0,
        "TAG measured {tag_measured} vs model {tag_model}"
    );
}

#[test]
fn stochastic_loss_degrades_but_does_not_break_the_protocol() {
    let n = 300;
    let out = IcpdaRun::new(
        deployment(n, 4),
        IcpdaConfig::paper_default(AggFunction::Count),
        agg::readings::count_readings(n),
        5,
    )
    .with_channel_plan(ChannelPlan::none().with_iid_loss(0.03).unwrap())
    .run();
    assert!(out.accepted, "benign loss must not trigger alarms");
    assert!(
        out.accuracy() > 0.6,
        "repair keeps most clusters alive: {}",
        out.accuracy()
    );
    assert!(out.accuracy() <= 1.0);
}
