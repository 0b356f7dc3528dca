//! Layer probes for the traced run: timed calls into one layer's public
//! functions on inputs sized from the workload's own instances.
//!
//! Each probe records one span per call (`core.linial`,
//! `sim.message_round`, `kernels.*`, `transport.*.round`, …) under a
//! `probe` root span and writes its layer metrics into [`Values`].

use crate::instances::Instance;
use crate::metrics::Values;
use crate::stats::median;
use crate::trace::Tracer;
use dcl_congest::Network;
use dcl_decomp::rg::{self, RgConfig};
use dcl_derand::seed::PartialSeed;
use dcl_derand::slice::SliceFamily;
use dcl_kernels::digit_dp::{self, EdgeDpCache, PackedForms};
use dcl_runner::run_protected;
use dcl_sim::{
    Backend, BandwidthCap, ExecConfig, Frame, NeighborTopology, RoundEngine, RoundLimits,
    SendPolicy, SimMetrics, TransportSpec,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rounds shipped per instance by the engine and transport probes.
const PROBE_ROUNDS: usize = 16;

/// Median duration in ms of every span named `name` (0 if none).
fn median_ms(tr: &Tracer, name: &str) -> f64 {
    tr.durations_ms().get(name).map_or(0.0, |d| median(d))
}

/// Runs `pass` over the instances until `budget` has elapsed (at least
/// once); `pass` gets the pass index.
fn for_budget(budget: Duration, mut pass: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed() < budget {
        pass(i);
        i += 1;
    }
}

/// `core.linial` and `decomp.decompose` on each instance graph from unique
/// ids, plus `sim.message_round`: one value per neighbor per round through
/// a bare [`RoundEngine`].
pub fn congest_layers(instances: &[Instance], tr: &mut Tracer, v: &mut Values, budget: Duration) {
    let mut linial_rounds = 0;
    let mut decompose_rounds = 0;
    let mut round_ns = 0u128;
    let mut messages = 0u64;
    for_budget(budget, |pass| {
        for (i, inst) in instances.iter().enumerate() {
            let g = &inst.graph;
            let op = i as u64;
            tr.span("probe", op, |tr| {
                let mut net = Network::with_default_cap(g, g.n() as u64);
                tr.span("core.linial", op, |_| {
                    black_box(dcl_coloring::linial::linial_from_ids(&mut net));
                });
                let mut dnet = Network::with_default_cap(g, g.n() as u64);
                tr.span("decomp.decompose", op, |_| {
                    black_box(rg::decompose(&mut dnet, &RgConfig::default()));
                });
                if pass == 0 {
                    linial_rounds += net.rounds();
                    decompose_rounds += dnet.rounds();
                }
                let topo = NeighborTopology::new(g);
                let cap = BandwidthCap::default_for(g.n(), g.n() as u64);
                let mut engine = RoundEngine::new(Backend::Sequential);
                let mut metrics = SimMetrics::default();
                for _ in 0..PROBE_ROUNDS {
                    let t = Instant::now();
                    let inboxes = tr.span("sim.message_round", op, |_| {
                        engine.message_round(&topo, cap, SendPolicy::Strict, &mut metrics, |u| {
                            g.neighbors(u).iter().map(|&w| (w, u as u64)).collect()
                        })
                    });
                    round_ns += t.elapsed().as_nanos();
                    black_box(inboxes);
                }
                messages += metrics.messages;
            });
        }
    });
    v.insert("core.linial.ms", median_ms(tr, "core.linial"));
    v.insert("core.linial.rounds", linial_rounds as f64);
    v.insert("decomp.decompose.ms", median_ms(tr, "decomp.decompose"));
    v.insert("decomp.decompose.rounds", decompose_rounds as f64);
    v.insert("sim.round_us", median_ms(tr, "sim.message_round") * 1e3);
    v.insert("sim.message_ns", round_ns as f64 / messages.max(1) as f64);
}

/// Kernel fixture sized from a workload: the seed family of a palette
/// `C` color space and `Δ`-dependent accuracy, and `2^λ` argmin candidates
/// with `λ = ⌈log₂ n⌉`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSizes {
    /// Input bits `m = ⌈log₂ C⌉` of the slice family.
    pub input_bits: u32,
    /// Output bits `b` of the slice family.
    pub output_bits: u32,
    /// Argmin candidate count `2^λ`.
    pub candidates: usize,
}

impl KernelSizes {
    /// Sizes for the largest instance of a workload (`Δ`, `C = (Δ+1)²`
    /// as after Linial's reduction, `n`).
    #[must_use]
    pub fn for_instances(instances: &[Instance]) -> Self {
        let delta = instances
            .iter()
            .map(|i| i.graph.max_degree())
            .max()
            .unwrap_or(1) as u64;
        let n = instances.iter().map(|i| i.graph.n()).max().unwrap_or(2) as u64;
        let bits = |x: u64| 64 - x.max(1).leading_zeros();
        let c = (delta + 1) * (delta + 1);
        KernelSizes {
            input_bits: bits(c - 1).clamp(1, 62),
            output_bits: (bits(delta + 1) + 4).clamp(2, 62),
            candidates: 1usize << bits(n - 1),
        }
    }
}

/// Times `f` in batches of `batch` calls until `budget` elapses; returns
/// the median ns per call.
fn ns_per_call(
    tr: &mut Tracer,
    name: &str,
    batch: usize,
    budget: Duration,
    mut f: impl FnMut(),
) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        tr.span(name, samples.len() as u64, |_| {
            for _ in 0..batch {
                f();
            }
        });
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

/// The four digit-DP / argmin kernels on a fixture of `sizes`.
pub fn kernel_layers(sizes: KernelSizes, tr: &mut Tracer, v: &mut Values, budget: Duration) {
    let fam = SliceFamily::new(sizes.input_bits, sizes.output_bits);
    let mut seed = PartialSeed::new(fam.seed_len());
    for i in (0..fam.seed_len()).step_by(2) {
        seed.fix(i, i % 4 == 0);
    }
    let mask = (1u64 << sizes.input_bits) - 1;
    let (x, y) = (0x2d5b_u64 & mask, 0x1a4e_u64 & mask);
    let fx = fam.forms_for(&seed, x);
    let fy = fam.forms_for(&seed, y);
    let slice = sizes.output_bits as usize / 2;
    let width = sizes.input_bits as usize + 1;
    // An odd position inside the slice: left free by the even-only fixes.
    let index = slice * width + usize::from((slice * width).is_multiple_of(2));
    let over = |f: &[dcl_kernels::BitForm], z| {
        [
            fam.form_with_fix(f[slice], z, index, false),
            fam.form_with_fix(f[slice], z, index, true),
        ]
    };
    let (over_u, over_v) = (over(&fx, x), over(&fy, y));
    let range = 1u64 << sizes.output_bits;
    let (t_u, t_v) = (range / 16 * 9, range / 4);
    let (px, py) = (PackedForms::from_forms(&fx), PackedForms::from_forms(&fy));
    let scores: Vec<f64> = (0..sizes.candidates as u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % 100_000) as f64 / 3.0)
        .collect();
    let share = budget / 4;
    let mut cache = EdgeDpCache::new();
    let cached = ns_per_call(tr, "kernels.edge_shares_cached", 4096, share, || {
        black_box(digit_dp::edge_shares_cached(
            &mut cache, &fx, over_u, t_u, 0.2, 0.25, &fy, over_v, t_v, 0.125, 0.5, slice,
        ));
    });
    let plain = ns_per_call(tr, "kernels.edge_shares", 4096, share, || {
        black_box(digit_dp::edge_shares(
            &fx, over_u, t_u, 0.2, 0.25, &fy, over_v, t_v, 0.125, 0.5, slice,
        ));
    });
    let joint = ns_per_call(tr, "kernels.joint_coin_probs_packed", 4096, share, || {
        black_box(digit_dp::joint_coin_probs_packed(
            black_box(&px),
            t_u,
            black_box(&py),
            t_v,
        ));
    });
    let argmin = ns_per_call(tr, "kernels.argmin_f64", 256, share, || {
        black_box(dcl_kernels::argmin::argmin_f64(black_box(&scores)));
    });
    v.insert("kernels.edge_shares_cached.ns", cached);
    v.insert("kernels.edge_shares.ns", plain);
    v.insert("kernels.joint_coin_probs_packed.ns", joint);
    v.insert("kernels.argmin_f64.ns", argmin);
}

/// Instances up to this many nodes feed the transport probe (a TCP
/// network opens one socket per directed edge).
const TRANSPORT_MAX_N: usize = 200;

/// Each transport tier built for each small instance's `n`, shipping one
/// 8-byte frame per directed edge per round through `send`/`finish_round`
/// (the first round, link setup on TCP, is not timed; Tcp `stats` give the
/// frame and wire-byte counts). Then every small `congest` instance is
/// colored over Tcp and over Local: `transport.tcp.overhead_ms` is the
/// median difference, and the two reports must be equal (the return
/// value).
pub fn transport_layers(instances: &[Instance], tr: &mut Tracer, v: &mut Values) -> bool {
    let small: Vec<&Instance> = instances
        .iter()
        .filter(|i| i.graph.n() <= TRANSPORT_MAX_N)
        .collect();
    let limits = RoundLimits {
        cap: None,
        policy: SendPolicy::Strict,
        model: "CONGEST",
    };
    let (mut frames, mut wire_bytes) = (0, 0);
    for spec in TransportSpec::all() {
        let name = format!("transport.{}.round", spec.name());
        for (i, inst) in small.iter().enumerate() {
            let g = &inst.graph;
            let mut transport = spec.build(g.n());
            for round in 0..=PROBE_ROUNDS {
                let span = (round > 0).then(|| tr.enter(&name, i as u64)).flatten();
                transport.begin_round(&limits);
                for u in g.nodes() {
                    for &w in g.neighbors(u) {
                        let frame = Frame {
                            declared_bits: 64,
                            payload: (u as u64).to_le_bytes().to_vec(),
                        };
                        transport.send(u, w, frame).expect("probe link is up");
                    }
                }
                black_box(transport.finish_round().expect("probe round completes"));
                tr.exit(span);
            }
            if spec == TransportSpec::Tcp {
                frames += transport.stats().frames;
                wire_bytes += transport.stats().wire_bytes;
            }
        }
        v.insert(
            match spec {
                TransportSpec::Local => "transport.local.round_us",
                TransportSpec::Channel => "transport.channel.round_us",
                TransportSpec::Tcp => "transport.tcp.round_us",
            },
            median_ms(tr, &name) * 1e3,
        );
    }
    v.insert("transport.tcp.frames", frames as f64);
    v.insert("transport.tcp.wire_bytes", wire_bytes as f64);

    let mut overhead = Vec::new();
    let mut equal = true;
    for (i, inst) in small
        .iter()
        .enumerate()
        .filter(|(_, i)| i.spec.scenario == "congest")
    {
        let scenario = dcl_service::build_scenario("congest").expect("registered");
        let mut timed = |name: &str, exec: ExecConfig| {
            let t = Instant::now();
            let r = tr.span(name, i as u64, |_| {
                run_protected(scenario.as_ref(), &inst.graph, &exec)
            });
            (r, t.elapsed().as_secs_f64() * 1e3)
        };
        let (local, local_ms) = timed("transport.local.coloring", ExecConfig::default());
        let tcp_exec = ExecConfig::default().with_transport(TransportSpec::Tcp);
        let (tcp, tcp_ms) = timed("transport.tcp.coloring", tcp_exec);
        equal &= local.is_ok() && local.ok() == tcp.ok();
        overhead.push(tcp_ms - local_ms);
    }
    v.insert("transport.tcp.overhead_ms", median(&overhead));
    equal
}
