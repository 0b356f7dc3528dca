//! Micro-benchmarks of the kernels under both tiers (`reference` /
//! `incremental`), on the same workloads the committed `BENCH_bench.json`
//! records. The incremental `edge_shares` row is the warm-cache
//! `edge_shares_cached` path — the steady state of the Lemma 2.6 drivers —
//! and the incremental argmin row is the four-lane fold.
//!
//! The digit-DP fixture matches `bench_derand`, so
//! `kernels/digit_dp/joint_coin_probs/reference` reproduces the historical
//! `joint_coin_probs` number.

use criterion::{criterion_group, criterion_main, Criterion};
use dcl_derand::seed::PartialSeed;
use dcl_derand::slice::SliceFamily;
use dcl_kernels::KernelTier;

fn kernel_tiers(c: &mut Criterion) {
    let fam = SliceFamily::new(10, 14);
    let mut seed = PartialSeed::new(fam.seed_len());
    for i in (0..fam.seed_len()).step_by(2) {
        seed.fix(i, i % 4 == 0);
    }
    let (x, y) = (0b1011001101u64, 0b0111010010u64);
    let fx = fam.forms_for(&seed, x);
    let fy = fam.forms_for(&seed, y);
    let over_u = [
        fam.form_with_fix(fx[3], x, 35, false),
        fam.form_with_fix(fx[3], x, 35, true),
    ];
    let over_v = [
        fam.form_with_fix(fy[3], y, 35, false),
        fam.form_with_fix(fy[3], y, 35, true),
    ];
    let scores: Vec<f64> = (0..4096u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % 100_000) as f64 / 3.0)
        .collect();

    for tier in KernelTier::all() {
        dcl_kernels::set_active_tier(tier);
        c.bench_function(
            &format!("kernels/digit_dp/joint_coin_probs/{}", tier.name()),
            |b| b.iter(|| dcl_kernels::digit_dp::joint_coin_probs(&fx, 9000, &fy, 4000)),
        );
        let es_id = format!("kernels/digit_dp/edge_shares/{}", tier.name());
        if tier == KernelTier::Incremental {
            let mut cache = dcl_kernels::digit_dp::EdgeDpCache::new();
            c.bench_function(&es_id, |b| {
                b.iter(|| {
                    dcl_kernels::digit_dp::edge_shares_cached(
                        &mut cache, &fx, over_u, 9000, 0.2, 0.25, &fy, over_v, 4000, 0.125, 0.5, 3,
                    )
                })
            });
        } else {
            c.bench_function(&es_id, |b| {
                b.iter(|| {
                    dcl_kernels::digit_dp::edge_shares(
                        &fx, over_u, 9000, 0.2, 0.25, &fy, over_v, 4000, 0.125, 0.5, 3,
                    )
                })
            });
        }
        c.bench_function(&format!("kernels/argmin/4096/{}", tier.name()), |b| {
            b.iter(|| dcl_kernels::argmin::argmin_f64(&scores))
        });
    }
    dcl_kernels::clear_active_tier();
}

criterion_group!(benches, kernel_tiers);
criterion_main!(benches);
