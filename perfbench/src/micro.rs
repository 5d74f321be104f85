//! Host-time probes that run outside any simulation: the fixed
//! calibration loop of the host fingerprint, and timings of calls into
//! the share, crypto, field and calendar layers at a workload's sizes.

use agg::field::Fp;
use icpda::shares::{
    generate_shares, generate_shares_t, recover_sum, recover_sum_at, share_to_bytes,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};
use wsn_sim::{CalendarQueue, SimTime};

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Milliseconds the host takes for a fixed integer loop (median of 5).
/// Two results whose calibration times differ widely were not measured
/// on comparable hosts, whatever their CPU model strings say.
pub fn calibration_ms() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut z = black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..20_000_000u64 {
                z = (z ^ (z >> 31))
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                    .wrapping_add(i);
            }
            black_box(z);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Median host nanoseconds per call of `op`, over 9 batches sized so a
/// batch takes at least 2 ms.
fn ns_per_op(mut op: impl FnMut(u64) -> u64) -> f64 {
    let mut n = 1u64;
    loop {
        let t = Instant::now();
        for i in 0..n {
            black_box(op(i));
        }
        if t.elapsed() >= Duration::from_millis(2) || n >= 1 << 30 {
            break;
        }
        n *= 2;
    }
    let samples: Vec<f64> = (0..9)
        .map(|b| {
            let t = Instant::now();
            for i in 0..n {
                black_box(op(b * n + i));
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&samples)
}

/// Host nanoseconds per call into the layers below the protocol.
pub struct LayerCalls {
    pub generate_ns: f64,
    pub recover_ns: f64,
    pub generate_t_ns: f64,
    pub recover_at_ns: f64,
    pub seal_open_ns: f64,
    pub fp_mul_ns: f64,
    pub fp_inverse_ns: f64,
    pub fp_batch_inverse_ns: f64,
    pub push_pop_ns: f64,
}

/// Times the share layer for a cluster of `m` members with recovery
/// threshold `t`, sealing and opening one share, field arithmetic, and a
/// calendar queue for `nodes` nodes holding `queue_len` events.
pub fn layer_calls(m: usize, t: usize, nodes: usize, queue_len: usize, seed: u64) -> LayerCalls {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let contribution = [1u64];
    let shares = generate_shares(&contribution, m, &mut rng);
    let points: Vec<(usize, Vec<Fp>)> = shares.iter().cloned().enumerate().take(t).collect();
    let payload = share_to_bytes(&shares[0]);
    let key = wsn_crypto::LinkKey(seed | 1);
    let mut acc = Fp::new(seed | 3);
    let mul_by = Fp::new(0x1234_5678_9abc_def1);
    let mut batch: Vec<Fp> = (0..m as u64).map(|i| Fp::new(i + 2)).collect();
    LayerCalls {
        generate_ns: ns_per_op(|_| generate_shares(&contribution, m, &mut rng).len() as u64),
        recover_ns: ns_per_op(|_| recover_sum(&shares).map_or(0, |s| s[0].to_u64())),
        generate_t_ns: ns_per_op(|_| generate_shares_t(&contribution, m, t, &mut rng).len() as u64),
        recover_at_ns: ns_per_op(|_| recover_sum_at(&points).map_or(0, |s| s[0].to_u64())),
        seal_open_ns: ns_per_op(|i| {
            let sealed = wsn_crypto::seal(key, i, &payload);
            wsn_crypto::open(key, &sealed).map_or(0, |p| u64::from(p[0]))
        }),
        fp_mul_ns: ns_per_op(|_| {
            acc *= mul_by;
            acc.to_u64()
        }),
        fp_inverse_ns: ns_per_op(|i| Fp::new(i + 2).inverse().map_or(0, Fp::to_u64)),
        fp_batch_inverse_ns: ns_per_op(|_| {
            Fp::batch_inverse(&mut batch).map_or(0, |()| batch[0].to_u64())
        }),
        push_pop_ns: push_pop_ns(nodes, queue_len, seed),
    }
}

/// Hold model on the engine's calendar queue: with `queue_len` events
/// pending, pop the earliest and push a successor up to 10 ms later.
fn push_pop_ns(nodes: usize, queue_len: usize, seed: u64) -> f64 {
    const SPREAD_NS: u64 = 10_000_000;
    let mut lcg = seed | 1;
    let mut next_delta = move || {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (lcg >> 33) % SPREAD_NS
    };
    let mut q = CalendarQueue::for_nodes(nodes);
    let mut seq = 0u64;
    for _ in 0..queue_len.max(1) {
        q.push(SimTime::from_nanos(next_delta()), seq, ());
        seq += 1;
    }
    ns_per_op(|_| {
        let Some((t, _, ())) = q.pop() else { return 0 };
        seq += 1;
        q.push(SimTime::from_nanos(t.as_nanos() + next_delta()), seq, ());
        t.as_nanos()
    })
}
