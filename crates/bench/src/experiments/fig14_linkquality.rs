//! **Extension E14 — Robustness to realistic link quality.**
//!
//! The paper's ns-2 setup uses clean unit-disk links; real testbeds show
//! a lossy "gray zone" near the edge of the radio range. This experiment
//! replaces the clean channel with the distance-dependent loss model
//! (`edge_loss · (d/r)^4`) and sweeps the edge loss. Expected shape:
//! TAG bends gracefully (one fragile unicast per node); iCPDA holds up
//! until moderate loss thanks to its repair rounds (share/FSum NACKs and
//! duplicated upstream reports), then degrades once whole clusters fail —
//! quantifying how much of the paper's accuracy rests on channel
//! quality.

use crate::parallel::par_sweep;
use crate::{f3, mean, paper_deployment, Table};
use agg::tag::{run_tag_with_channel, TagConfig};
use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaRun};
use wsn_sim::prelude::*;

const N: usize = 400;
const SEEDS: u64 = 5;

/// Regenerates extension E14.
///
/// # Errors
///
/// Propagates CSV write failures.
pub fn run() -> std::io::Result<()> {
    let mut table = Table::new(
        "Extension E14 — accuracy under edge-of-range loss (N = 400, loss = e·(d/r)^4)",
        &[
            "edge loss e",
            "TAG accuracy",
            "iCPDA accuracy",
            "honest rejects",
        ],
    );
    let losses = [0.0, 0.1, 0.2, 0.3, 0.5];
    let per_loss = par_sweep("fig14_linkquality", &losses, SEEDS, |&edge_loss, seed| {
        let channel = ChannelPlan::none()
            .with_gray_zone(4.0, edge_loss)
            .expect("invariant: edge losses are probabilities");
        let readings = agg::readings::count_readings(N);
        let t = run_tag_with_channel(
            paper_deployment(N, seed),
            SimConfig::paper_default(),
            TagConfig::paper_default(AggFunction::Count),
            &readings,
            seed + 1,
            &FaultPlan::none(),
            &channel,
        );
        let i = IcpdaRun::new(
            paper_deployment(N, seed),
            IcpdaConfig::paper_default(AggFunction::Count),
            readings,
            seed + 1,
        )
        .with_channel_plan(channel)
        .run();
        (
            agg::accuracy_ratio(t.value, t.truth),
            i.accuracy(),
            !i.accepted,
        )
    });
    for (edge_loss, trials) in losses.iter().zip(per_loss) {
        let tag_acc: Vec<f64> = trials.iter().map(|t| t.0).collect();
        let icpda_acc: Vec<f64> = trials.iter().map(|t| t.1).collect();
        let rejects = trials.iter().filter(|t| t.2).count();
        table.row(vec![
            f3(*edge_loss),
            f3(mean(&tag_acc)),
            f3(mean(&icpda_acc)),
            format!("{rejects}/{SEEDS}"),
        ]);
    }
    table.emit("fig14_linkquality")
}
