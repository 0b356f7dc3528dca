//! Production bodies against their reference bodies, bit for bit.
//!
//! Every kernel's production body must produce **bit-identical** `f64`
//! results to its verbatim reference body — the float-association rule of
//! the crate docs, checked here with `to_bits` equality rather than
//! epsilon comparison. Each property calls both bodies directly, so no
//! test here touches the process-global tier switch: the SoA digit DPs
//! (`scalar::{prob_lt, prob_joint_lt, joint_coin_probs}`) and their
//! interval combine against `reference::*`, the four-lane argmin fold
//! against the scan, and the cached `incremental::edge_shares` against
//! `reference::edge_shares`. Inputs are arbitrary same-slice form vectors,
//! thresholds (including the inclusive `t = 2^b` edge) and single-position
//! overrides derived by real "fix one seed bit" semantics. The stateful
//! incremental evaluator is additionally driven through full monotone seed
//! schedules, checking warm-cache vs fresh equality after every fix.

use dcl_kernels::digit_dp::{incremental, reference, scalar, segment, EdgeDpCache, PackedForms};
use dcl_kernels::{argmin, digit_dp, ratio, BitForm};
use proptest::prelude::*;

/// Packs `forms` with position `p` replaced by `f` when `over = Some((p, f))`
/// — the SoA counterpart of the reference bodies' override argument.
fn pack(forms: &[BitForm], over: Option<(usize, BitForm)>) -> PackedForms {
    let mut packed = PackedForms::from_forms(forms);
    if let Some((p, f)) = over {
        packed.set_form(p, f);
    }
    packed
}

/// Decodes two same-slice form vectors of `b` digits from raw generator
/// words. Per position: `s_free` is shared (same slice, same seed), the
/// r-masks are independent `b`-bit subsets, and a `corr` bit forces the
/// masks equal so the `Correlated` case appears reliably. All five
/// `PairDist` cases arise.
#[allow(clippy::too_many_arguments)]
fn decode_forms(
    b: usize,
    s_free_bits: u64,
    off_x: u64,
    off_y: u64,
    mask_seed_x: u64,
    mask_seed_y: u64,
    corr_bits: u64,
) -> (Vec<BitForm>, Vec<BitForm>) {
    debug_assert!(b <= 6, "decode_forms packs 6-bit masks");
    let width = (1u64 << b) - 1;
    let mut fx = Vec::with_capacity(b);
    let mut fy = Vec::with_capacity(b);
    for i in 0..b {
        let s_free = s_free_bits >> i & 1 == 1;
        let mx = mask_seed_x >> (i * 6) & width;
        let my = if corr_bits >> i & 1 == 1 {
            mx
        } else {
            mask_seed_y >> (i * 6) & width
        };
        fx.push(BitForm {
            offset: off_x >> i & 1 == 1,
            mask: mx,
            s_free,
        });
        fy.push(BitForm {
            offset: off_y >> i & 1 == 1,
            mask: my,
            s_free,
        });
    }
    (fx, fy)
}

/// Applies "fix one seed bit of this slice to `val`" to a paired position:
/// either the shared `s` bit (when free and selected) or a free r-variable
/// `j`, dropped from each mask that contains it with `val` folded into the
/// offset. Preserves the same-slice invariant (shared `s_free`, masks stay
/// subsets), exactly like `SliceFamily::form_with_fix`.
fn fix_forms(fx: BitForm, fy: BitForm, which: u64, val: bool) -> (BitForm, BitForm) {
    let mut gx = fx;
    let mut gy = fy;
    if fx.s_free && which & 1 == 1 {
        gx.s_free = false;
        gy.s_free = false;
        if val {
            gx.offset = !gx.offset;
            gy.offset = !gy.offset;
        }
    } else {
        let j = which % 6;
        for g in [&mut gx, &mut gy] {
            if g.mask >> j & 1 == 1 {
                g.mask &= !(1u64 << j);
                if val {
                    g.offset = !g.offset;
                }
            }
        }
    }
    (gx, gy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SoA marginal, joint and four-outcome coin DPs are bit-identical
    /// to the reference, with and without single-position overrides.
    #[test]
    fn soa_digit_dp_matches_reference(
        b in 1usize..=6,
        s_free_bits in any::<u64>(),
        offs in any::<u64>(),
        mask_seed_x in any::<u64>(),
        mask_seed_y in any::<u64>(),
        corr_bits in any::<u64>(),
        ts in any::<u64>(),
        ctrl in any::<u64>(),
    ) {
        let (fx, fy) = decode_forms(
            b, s_free_bits, offs, offs >> 8, mask_seed_x, mask_seed_y, corr_bits,
        );
        let full = 1u64 << b;
        let (tx, ty) = (ts % (full + 1), (ts >> 32) % (full + 1));
        let p = (ctrl % b as u64) as usize;
        let (over_which, over_val, use_over) =
            (ctrl >> 8, ctrl >> 16 & 1 == 1, ctrl >> 17 & 1 == 1);
        let (ox, oy) = fix_forms(fx[p], fy[p], over_which, over_val);
        let (over_x, over_y) = if use_over {
            (Some((p, ox)), Some((p, oy)))
        } else {
            (None, None)
        };

        let (sx, sy) = (pack(&fx, over_x), pack(&fy, over_y));
        prop_assert_eq!(
            scalar::prob_lt(&sx, tx).to_bits(),
            reference::prob_lt_override(&fx, over_x, tx).to_bits(),
            "marginal x"
        );
        prop_assert_eq!(
            scalar::prob_lt(&sy, ty).to_bits(),
            reference::prob_lt_override(&fy, over_y, ty).to_bits(),
            "marginal y"
        );
        prop_assert_eq!(
            scalar::prob_joint_lt(&sx, tx, &sy, ty).to_bits(),
            reference::prob_joint_lt_override(&fx, over_x, tx, &fy, over_y, ty).to_bits(),
            "joint"
        );
        let coins = reference::joint_coin_probs_override(&fx, over_x, tx, &fy, over_y, ty)
            .map(f64::to_bits);
        prop_assert_eq!(
            scalar::joint_coin_probs(&sx, tx, &sy, ty).map(f64::to_bits),
            coins,
            "coins"
        );
        prop_assert_eq!(
            digit_dp::joint_coin_probs_packed(&sx, tx, &sy, ty).map(f64::to_bits),
            coins,
            "packed entry point"
        );
    }

    /// The per-edge aggregations are bit-identical to the reference: the
    /// cached `edge_shares` on a cold cache, and the four SoA joint-CDF
    /// corners combined by `segment::interval` against
    /// `reference::joint_interval`.
    #[test]
    fn edge_aggregation_matches_reference(
        b in 1usize..=6,
        s_free_bits in any::<u64>(),
        offs in any::<u64>(),
        mask_seed_u in any::<u64>(),
        mask_seed_v in any::<u64>(),
        corr_bits in any::<u64>(),
        ts in any::<u64>(),
        bounds_raw in any::<u64>(),
        ctrl in any::<u64>(),
        kraw in any::<u64>(),
    ) {
        let (fu, fv) = decode_forms(
            b, s_free_bits, offs, offs >> 8, mask_seed_u, mask_seed_v, corr_bits,
        );
        let full = 1u64 << b;
        let (tu, tv) = (ts % (full + 1), (ts >> 32) % (full + 1));
        let slice = (ctrl % b as u64) as usize;
        let over_which = ctrl >> 8;
        let (k0_u, k1_u, k0_v, k1_v) = (
            (kraw % 9) as usize,
            ((kraw >> 8) % 9) as usize,
            ((kraw >> 16) % 9) as usize,
            ((kraw >> 24) % 9) as usize,
        );
        let (u0, v0) = fix_forms(fu[slice], fv[slice], over_which, false);
        let (u1, v1) = fix_forms(fu[slice], fv[slice], over_which, true);
        let inv = ratio::recip_or_zero;

        let (a, bb) = (bounds_raw % (full + 1), bounds_raw >> 8 & 0xff);
        let (ul, uh) = (a.min(bb % (full + 1)), a.max(bb % (full + 1)));
        let c = bounds_raw >> 16 & 0xff;
        let d = bounds_raw >> 24 & 0xff;
        let (vl, vh) = ((c % (full + 1)).min(d % (full + 1)), (c % (full + 1)).max(d % (full + 1)));

        let shares = reference::edge_shares(
            &fu, [u0, u1], tu, inv(k0_u), inv(k1_u),
            &fv, [v0, v1], tv, inv(k0_v), inv(k1_v),
            slice,
        )
        .map(f64::to_bits);
        let cached = incremental::edge_shares(
            &mut EdgeDpCache::new(),
            &fu, [u0, u1], tu, inv(k0_u), inv(k1_u),
            &fv, [v0, v1], tv, inv(k0_v), inv(k1_v),
            slice,
        )
        .map(f64::to_bits);
        prop_assert_eq!(cached, shares, "edge shares");

        let (su, sv) = (PackedForms::from_forms(&fu), PackedForms::from_forms(&fv));
        let j = |a: u64, b: u64| scalar::prob_joint_lt(&su, a, &sv, b);
        let interval = segment::interval([j(uh, vh), j(ul, vh), j(uh, vl), j(ul, vl)]);
        prop_assert_eq!(
            interval.to_bits(),
            reference::joint_interval(&fu, ul, uh, &fv, vl, vh).to_bits(),
            "interval"
        );
    }

    /// The four-lane argmin fold is bit-identical to the scan on
    /// adversarial score vectors: ties, NaN, infinities, signed zeros,
    /// arbitrary lengths (covering lane remainders and short inputs).
    #[test]
    fn argmin_fold_matches_scan(
        raw in collection::vec((0u8..8, 0.0f64..1.0), 0..48),
    ) {
        let scores: Vec<f64> = raw
            .iter()
            .map(|&(code, v)| match code {
                4 => f64::NAN,
                5 => f64::INFINITY,
                6 => 0.0,
                7 => -0.0,
                // Quantize to 1/8ths so exact ties are common.
                _ => (v * 8.0).floor() / 8.0,
            })
            .collect();

        let anchor = argmin::reference(&scores);
        let anchor_bits = (anchor.0.to_bits(), anchor.1);
        let fold = argmin::scalar(&scores);
        prop_assert_eq!((fold.0.to_bits(), fold.1), anchor_bits, "fold");
        // The entry point under whichever tier is ambient.
        let (m, i) = argmin::argmin_f64(&scores);
        prop_assert_eq!((m.to_bits(), i), anchor_bits, "argmin_f64");
    }

    /// The ratio batches match their single-value anchors bit for bit.
    #[test]
    fn batches_match_single_values(
        ks in collection::vec(0usize..10_000, 0..48),
        pairs in collection::vec((0usize..10_000, 1usize..10_000), 0..48),
    ) {
        let (nums, dens): (Vec<usize>, Vec<usize>) = pairs.iter().copied().unzip();
        let mut recips = vec![0.0f64; ks.len()];
        ratio::recip_batch(&ks, &mut recips);
        let mut ratios = vec![0.0f64; nums.len()];
        ratio::ratio_batch(&nums, &dens, &mut ratios);
        for (i, &k) in ks.iter().enumerate() {
            prop_assert_eq!(recips[i].to_bits(), ratio::recip_or_zero(k).to_bits());
        }
        for (i, (&n, &d)) in nums.iter().zip(&dens).enumerate() {
            prop_assert_eq!(ratios[i].to_bits(), ratio::ratio(n, d).to_bits());
        }
    }

    /// The stateful incremental evaluator driven through a full monotone
    /// seed schedule: slices are processed in increasing order, and within
    /// each slice's window several seed bits are fixed in turn (mutating
    /// only that slice's form — the contract `EdgeDpCache` relies on).
    /// After **every** fix, the warm persistent cache must agree bitwise
    /// with a cold cache and with the reference body.
    #[test]
    fn incremental_cache_matches_fresh_across_monotone_schedule(
        b in 1usize..=6,
        s_free_bits in any::<u64>(),
        offs in any::<u64>(),
        mask_seed_u in any::<u64>(),
        mask_seed_v in any::<u64>(),
        corr_bits in any::<u64>(),
        ts in any::<u64>(),
        kraw in any::<u64>(),
        fix_ctrl in any::<u64>(),
    ) {
        let (mut fu, mut fv) = decode_forms(
            b, s_free_bits, offs, offs >> 8, mask_seed_u, mask_seed_v, corr_bits,
        );
        let full = 1u64 << b;
        let (tu, tv) = (ts % (full + 1), (ts >> 32) % (full + 1));
        let inv = ratio::recip_or_zero;
        let (k0_u, k1_u, k0_v, k1_v) = (
            (kraw % 9) as usize,
            ((kraw >> 8) % 9) as usize,
            ((kraw >> 16) % 9) as usize,
            ((kraw >> 24) % 9) as usize,
        );
        let mut warm = EdgeDpCache::new();
        for slice in 0..b {
            // A window of "m + 1 = 3" seed bits per slice.
            for step in 0..3usize {
                let which = fix_ctrl >> (slice * 8 + step * 2);
                let val = fix_ctrl >> (32 + slice + step) & 1 == 1;
                let (u0, v0) = fix_forms(fu[slice], fv[slice], which, false);
                let (u1, v1) = fix_forms(fu[slice], fv[slice], which, true);

                let cached = incremental::edge_shares(
                    &mut warm,
                    &fu, [u0, u1], tu, inv(k0_u), inv(k1_u),
                    &fv, [v0, v1], tv, inv(k0_v), inv(k1_v),
                    slice,
                ).map(f64::to_bits);
                let mut cold = EdgeDpCache::new();
                let fresh = incremental::edge_shares(
                    &mut cold,
                    &fu, [u0, u1], tu, inv(k0_u), inv(k1_u),
                    &fv, [v0, v1], tv, inv(k0_v), inv(k1_v),
                    slice,
                ).map(f64::to_bits);
                let stateless = reference::edge_shares(
                    &fu, [u0, u1], tu, inv(k0_u), inv(k1_u),
                    &fv, [v0, v1], tv, inv(k0_v), inv(k1_v),
                    slice,
                ).map(f64::to_bits);
                prop_assert_eq!(cached, fresh, "warm vs cold at slice {} step {}", slice, step);
                prop_assert_eq!(cached, stateless, "warm vs stateless at slice {} step {}", slice, step);

                // Commit the fix: the chosen candidate becomes the slice's
                // form — only `slice`'s position mutates, as in
                // `SliceFamily::update_forms_on_fix`.
                let (gu, gv) = if val { (u1, v1) } else { (u0, v0) };
                fu[slice] = gu;
                fv[slice] = gv;
            }
        }
    }
}
