//! Fragment fitting: the paper's `MakeApproximation` (Theorem 1).
//!
//! [`longest_fragment`] finds, for a given function kind and error bound ε,
//! the longest fragment starting at a given index that admits an
//! ε-approximation — in optimal O(fragment length) time via the
//! [`stab::StabbingLine`] reduction. [`span_end_in`] is the same fit
//! returning only the fragment end, over a reused `StabbingLine`: the form
//! the partitioner runs at every tiling position.

pub mod kinds;
pub mod stab;

pub use kinds::{Kind, Params};
pub use stab::{Line, StabbingLine};

/// A fitted fragment: the function of `kind` with `params` ε-approximates
/// `values[start..end]` when evaluated at local coordinates
/// `u = index − origin + 1`.
///
/// `origin == start` for fragments produced directly by the fitter; the
/// partitioner's *suffix edges* (paper §III-B) produce fragments whose
/// function was fitted from an earlier origin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fragment {
    /// The function family.
    pub kind: Kind,
    /// Fitted parameters (transformed space, plus anchor extra).
    pub params: Params,
    /// First covered index (inclusive, 0-based).
    pub start: usize,
    /// One past the last covered index.
    pub end: usize,
    /// Index the local coordinate system is anchored at (`u = 1` there).
    pub origin: usize,
}

impl Fragment {
    /// Number of data points covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the fragment covers no points.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Applies the global positivity shift to a raw value for log-domain kinds.
#[inline]
fn shifted(kind: Kind, y: i64, shift: i64) -> f64 {
    if kind.log_domain() {
        (y + shift) as f64
    } else {
        y as f64
    }
}

/// Precomputed `f64` views of a whole series, shared across every `(f, ε)`
/// pair of one partitioning run.
///
/// [`longest_fragment`] converts each value it touches from `i64` on the
/// fly (`shifted`), which is fine for a single greedy pass but wasteful when
/// Algorithm 1 re-reads every point once per pair: the same `as f64` cast
/// (and `+ shift` for log-domain kinds) is then repeated `|F|·|E|` times.
/// A `FitView` hoists both conversions out of the inner fit loops — `plain`
/// holds `values[k] as f64`, `shifted` holds `(values[k] + shift) as f64` —
/// producing bit-identical inputs to the transforms.
pub struct FitView<'a> {
    values: &'a [i64],
    plain: Vec<f64>,
    /// Log-domain view; empty when no log-domain kind is in play.
    shifted: Vec<f64>,
    shift: i64,
}

impl<'a> FitView<'a> {
    /// Builds the view. `with_log_domain` controls whether the shifted view
    /// is materialised (pass `true` iff some kind in use is log-domain).
    pub fn new(values: &'a [i64], shift: i64, with_log_domain: bool) -> Self {
        let plain = values.iter().map(|&y| y as f64).collect();
        let shifted = if with_log_domain {
            values.iter().map(|&y| (y + shift) as f64).collect()
        } else {
            Vec::new()
        };
        Self { values, plain, shifted, shift }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The underlying raw values.
    pub fn values(&self) -> &'a [i64] {
        self.values
    }

    /// The positivity shift the view was built with.
    pub fn shift(&self) -> i64 {
        self.shift
    }

    /// The (possibly shifted) values `kind`'s transform reads.
    #[inline]
    fn ys(&self, kind: Kind) -> &[f64] {
        if kind.log_domain() {
            debug_assert!(!self.shifted.is_empty(), "view built without the log-domain plane");
            &self.shifted
        } else {
            &self.plain
        }
    }
}

/// The model's integer prediction for index `k` (0-based), i.e.
/// `⌊f(u)⌋ − shift` for log-domain kinds and `⌊f(u)⌋` otherwise.
///
/// This function is shared between compression (residual computation) and
/// decompression (value reconstruction), which is what makes the scheme
/// lossless regardless of floating-point rounding.
#[inline]
pub fn model_value(frag: &Fragment, k: usize, shift: i64) -> i64 {
    let u = (k - frag.origin + 1) as f64;
    let f = frag.kind.eval(frag.params, u);
    let clamped = floor_to_i64(f);
    if frag.kind.log_domain() {
        clamped.wrapping_sub(shift)
    } else {
        clamped
    }
}

/// Floors a model output to i64 — the one canonical float→integer step
/// shared by encoding and every decode path. Equal to `f.floor() as i64`
/// for every f64 (NaN → 0, ±∞ and out-of-range values saturate to
/// MIN/MAX), but without `f64::floor`, which on baseline x86-64 (no SSE4.1
/// `roundsd`) is a libm call per value.
///
/// The saturating cast truncates towards zero; stepping down by one when
/// the truncation landed above `f` (negative non-integers) gives the
/// floor. The comparison is false for NaN, and the subtraction saturates
/// at `i64::MIN` for values below −2^63.
#[inline]
pub fn floor_to_i64(f: f64) -> i64 {
    let t = f as i64;
    t.saturating_sub(((t as f64) > f) as i64)
}

/// Estimated integer error of the f64 round trip every lossy fitter in the
/// workspace takes: input conversion (`y as f64`, ≤ ½ ULP) plus model
/// evaluation (a few ULPs of the result's magnitude). Zero whenever every
/// (shifted) value sits within f64's exact integer range `±2^53` — i.e. for
/// every realistic scaled-decimal series. For magnitudes beyond that a
/// lossy compressor must tighten its fitting ε by at least this much, or
/// the float-space guarantee fails to transfer to the integer domain and
/// reconstruction can land just outside the promised ε + 1 (the lossless
/// path absorbs the same rounding in its corrections; lossy paths have
/// none).
///
/// This is a starting *estimate*, not a proven bound: fitted-slope error
/// amplified over a long fragment can exceed any fixed ULP multiple (seen
/// in practice as ~10 ULPs on a 2^55-magnitude walk). Callers therefore
/// measure the integer-domain max error after encoding and retighten until
/// the stored ε actually holds — see `NeaTSLossy::compress_with_threads`.
/// When ε itself is smaller than the conversion error of the magnitudes
/// involved the bound is not representable in f64 arithmetic at all and
/// tightening saturates at a zero-ε fit (best effort).
pub fn float_eval_slack(values: &[i64], shift: i64) -> u64 {
    let max_abs = values
        .iter()
        .map(|&y| y.unsigned_abs().max(y.saturating_add(shift).unsigned_abs()))
        .max()
        .unwrap_or(0);
    if max_abs <= 1u64 << 53 {
        return 0;
    }
    let ulp = 1u64 << (63 - max_abs.leading_zeros() as u64).saturating_sub(52);
    4 * ulp
}

/// Maximum absolute residual of `frag` over `values` (its true L∞ error).
pub fn max_abs_residual(values: &[i64], frag: &Fragment, shift: i64) -> u64 {
    (frag.start..frag.end)
        .map(|k| values[k].abs_diff(model_value(frag, k, shift)))
        .max()
        .unwrap_or(0)
}

/// Finds the longest fragment `values[start..j]` that admits an
/// ε-approximation by a function of `kind`, and returns it with fitted
/// parameters (the paper's `MakeApproximation(T, k, f, ε)`).
///
/// `shift` is the global positivity shift used by log-domain kinds.
/// Returns `None` only if the kind's transform is undefined at the very
/// first point (impossible when `shift` is chosen as in
/// [`crate::positivity_shift`]).
pub fn longest_fragment(
    values: &[i64],
    start: usize,
    kind: Kind,
    eps: u64,
    shift: i64,
) -> Option<Fragment> {
    let y_at = |k: usize| shifted(kind, values[k], shift);
    let mut line = StabbingLine::new();
    let end = fit_span(values.len(), y_at, start, kind, eps, &mut line)?;
    Some(finish_fragment(&line, y_at(start), start, end, kind))
}

/// [`longest_fragment`] reading from a shared [`FitView`] instead of
/// converting values on the fly — the form the two-stage partitioner's
/// backtrack uses to refit its winning edges. Bit-identical results to
/// [`longest_fragment`].
pub fn longest_fragment_in(
    view: &FitView<'_>,
    start: usize,
    kind: Kind,
    eps: u64,
) -> Option<Fragment> {
    let mut line = StabbingLine::new();
    let end = span_end_in(view, start, kind, eps, &mut line)?;
    Some(finish_fragment(&line, view.ys(kind)[start], start, end, kind))
}

/// The end of the fragment [`longest_fragment_in`] would return — the
/// partitioner's stage-1 fit, which needs spans only.
///
/// `line` is scratch state: it is reset on entry and left holding the
/// fragment's constraints, so one instance serves every fit of a pair
/// without allocating per fragment. No parameters are computed.
#[inline]
pub fn span_end_in(
    view: &FitView<'_>,
    start: usize,
    kind: Kind,
    eps: u64,
    line: &mut StabbingLine,
) -> Option<usize> {
    let ys = view.ys(kind);
    fit_span(ys.len(), |k| ys[k], start, kind, eps, line)
}

/// Parameters of the fragment `[start, end)` whose constraints `line`
/// holds; `y0` is the (possibly shifted) value at `start`.
fn finish_fragment(line: &StabbingLine, y0: f64, start: usize, end: usize, kind: Kind) -> Fragment {
    let params = if kind.anchored() {
        let (m, b) = match line.solution() {
            Some(l) => (l.slope, l.intercept),
            None => (0.0, 0.0), // single-point fragment: constant anchor
        };
        kind.finish_params(m, b, y0)
    } else {
        let l = line.solution().expect("at least one segment accepted");
        Params { m: l.slope, b: l.intercept, extra: 0.0 }
    };
    Fragment { kind, params, start, end, origin: start }
}

/// The one fit loop (Theorem 1): feeds the transformed constraints of
/// `start, start + 1, …` into `line` until one is infeasible or undefined,
/// and returns the fragment end — `None` when the transform is undefined at
/// `start` itself. `y_at(k)` yields the (possibly shifted) value at `k`.
///
/// Dispatches once per fragment to a loop specialised for `kind`, so the
/// per-point work carries no kind match.
#[inline]
fn fit_span(
    len: usize,
    y_at: impl Fn(usize) -> f64,
    start: usize,
    kind: Kind,
    eps: u64,
    line: &mut StabbingLine,
) -> Option<usize> {
    debug_assert!(start < len);
    line.reset();
    let epsf = eps as f64;
    macro_rules! specialise {
        ($($k:ident),*) => {
            match kind {
                $(Kind::$k => fit_loop(len, y_at, start, Kind::$k, epsf, line),)*
            }
        };
    }
    specialise!(
        Linear, Quadratic, Exponential, Sqrt, Logarithmic, Power, QuadOffset, QuadLinear,
        CubicLinear, CubicQuad, Gaussian
    )
}

/// Body of [`fit_span`], inlined into each arm with `kind` a constant.
#[inline(always)]
fn fit_loop(
    len: usize,
    y_at: impl Fn(usize) -> f64,
    start: usize,
    kind: Kind,
    epsf: f64,
    line: &mut StabbingLine,
) -> Option<usize> {
    if kind.anchored() {
        let y0 = y_at(start);
        if kind.log_domain() && y0 <= 0.0 {
            return None;
        }
        let mut end = start + 1; // the anchor itself is always represented exactly
        while end < len {
            let u = (end - start + 1) as f64;
            let Some((t, lo, hi)) = kind.transform_anchored(u, y_at(end), y0, epsf) else { break };
            if !line.try_add(t, lo, hi) {
                break;
            }
            end += 1;
        }
        return Some(end);
    }
    let mut end = start;
    while end < len {
        let u = (end - start + 1) as f64;
        let Some((t, lo, hi)) = kind.transform(u, y_at(end), epsf) else { break };
        if !line.try_add(t, lo, hi) {
            break;
        }
        end += 1;
    }
    (end > start).then_some(end)
}

/// Greedy piecewise approximation (Corollary 1): repeatedly take the longest
/// fragment of a single kind. Returns the minimal-count partition for that
/// kind.
pub fn greedy_partition(values: &[i64], kind: Kind, eps: u64, shift: i64) -> Vec<Fragment> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < values.len() {
        let frag = longest_fragment(values, start, kind, eps, shift)
            .expect("transform undefined: wrong shift for log-domain kind");
        debug_assert!(frag.end > start);
        start = frag.end;
        out.push(frag);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn check_eps_bound(values: &[i64], frag: &Fragment, eps: u64, shift: i64) {
        // Allow +1 slack for floor-induced rounding at fragment boundaries:
        // the mathematical bound is ε, floor keeps it within ε (see paper
        // §II), but f64 evaluation of transcendental kinds can add one ulp.
        let r = max_abs_residual(values, frag, shift);
        assert!(r <= eps + 1, "residual {r} exceeds eps {eps} for {:?}", frag.kind);
    }

    #[test]
    fn linear_fragment_exact_line() {
        let values: Vec<i64> = (0..100).map(|k| 3 * k + 7).collect();
        let frag = longest_fragment(&values, 0, Kind::Linear, 0, 0).unwrap();
        assert_eq!(frag.end, 100, "an exact line must be covered entirely");
        assert_eq!(max_abs_residual(&values, &frag, 0), 0);
    }

    #[test]
    fn linear_fragment_breaks_at_discontinuity() {
        let mut values: Vec<i64> = (0..50).map(|k| 2 * k).collect();
        values.extend((0..50).map(|k| 1000 - 10 * k));
        let frag = longest_fragment(&values, 0, Kind::Linear, 1, 0).unwrap();
        assert!(frag.end <= 51, "fragment crossed the discontinuity: end={}", frag.end);
        check_eps_bound(&values, &frag, 1, 0);
    }

    #[test]
    fn longest_fragment_is_maximal_vs_bruteforce() {
        // Brute force: a fragment [s, e) is feasible iff some line stabs all
        // transformed segments; compare fragment end against extending by one
        // and checking residual feasibility via dense parameter search.
        let mut rng = StdRng::seed_from_u64(5);
        let values: Vec<i64> =
            (0..200).map(|k| (10.0 * ((k as f64) / 7.0).sin()) as i64 + rng.random_range(-2..3)).collect();
        for eps in [0u64, 1, 3, 8] {
            let mut start = 0;
            while start < values.len() {
                let frag = longest_fragment(&values, start, Kind::Linear, eps, 0).unwrap();
                check_eps_bound(&values, &frag, eps, 0);
                // Maximality: brute-force check that extending is infeasible.
                if frag.end < values.len() {
                    let ext = &values[start..=frag.end];
                    assert!(
                        !linear_feasible_brute(ext, eps),
                        "fragment [{start}, {}) not maximal for eps={eps}",
                        frag.end
                    );
                }
                start = frag.end;
            }
        }
    }

    /// LP-free brute feasibility for |m·u + b − y| ≤ eps over u = 1..n.
    fn linear_feasible_brute(values: &[i64], eps: u64) -> bool {
        let n = values.len();
        let e = eps as f64;
        // candidate slopes from all endpoint pairs
        let mut slopes = vec![0.0];
        for i in 0..n {
            for j in i + 1..n {
                let dt = (j - i) as f64;
                for (si, sj) in [(e, -e), (-e, e), (e, e), (-e, -e)] {
                    slopes.push(((values[j] as f64 + sj) - (values[i] as f64 + si)) / dt);
                }
            }
        }
        slopes.iter().any(|&m| {
            let mut blo = f64::NEG_INFINITY;
            let mut bhi = f64::INFINITY;
            for (k, &y) in values.iter().enumerate() {
                let u = (k + 1) as f64;
                blo = blo.max(y as f64 - e - m * u);
                bhi = bhi.min(y as f64 + e - m * u);
            }
            blo <= bhi + 1e-9
        })
    }

    #[test]
    fn exponential_fits_exponential_data() {
        // y = 5 e^{0.05 u}
        let values: Vec<i64> = (1..=150).map(|u| (5.0 * (0.05 * u as f64).exp()).round() as i64).collect();
        let frag = longest_fragment(&values, 0, Kind::Exponential, 2, 0).unwrap();
        assert!(frag.len() >= 100, "exponential fit too short: {}", frag.len());
        check_eps_bound(&values, &frag, 2, 0);
        // Linear cannot follow an exponential that long with the same eps.
        let lin = longest_fragment(&values, 0, Kind::Linear, 2, 0).unwrap();
        assert!(lin.len() < frag.len(), "linear {} >= exponential {}", lin.len(), frag.len());
    }

    #[test]
    fn quadratic_fits_parabola_exactly() {
        // y = 2u² − 3u + 11 (anchored family can represent it exactly)
        let values: Vec<i64> = (1..=100).map(|u| 2 * u * u - 3 * u + 11).collect();
        let frag = longest_fragment(&values, 0, Kind::Quadratic, 1, 0).unwrap();
        assert_eq!(frag.end, 100, "parabola should be one fragment");
        check_eps_bound(&values, &frag, 1, 0);
    }

    #[test]
    fn sqrt_fits_radical_data() {
        let values: Vec<i64> = (1..=200).map(|u| (40.0 * (u as f64).sqrt() + 7.0) as i64).collect();
        let frag = longest_fragment(&values, 0, Kind::Sqrt, 1, 0).unwrap();
        assert!(frag.len() >= 150, "sqrt fit too short: {}", frag.len());
        check_eps_bound(&values, &frag, 1, 0);
    }

    #[test]
    fn all_kinds_respect_eps_on_random_data() {
        let mut rng = StdRng::seed_from_u64(77);
        let values: Vec<i64> = {
            let mut v = 500i64;
            (0..300)
                .map(|_| {
                    v += rng.random_range(-5..6);
                    v = v.max(200); // keep positive for log kinds with shift 0
                    v
                })
                .collect()
        };
        for kind in Kind::ALL {
            for eps in [0u64, 2, 10] {
                let mut start = 0;
                while start < values.len() {
                    let frag = longest_fragment(&values, start, kind, eps, 0)
                        .unwrap_or_else(|| panic!("{kind:?} failed at {start}"));
                    assert!(frag.end > start);
                    check_eps_bound(&values, &frag, eps, 0);
                    start = frag.end;
                }
            }
        }
    }

    #[test]
    fn log_domain_needs_shift_for_small_values() {
        let values = vec![0i64, 1, 2];
        // Without shift the exponential transform is undefined at y=0, ε=1.
        assert!(longest_fragment(&values, 0, Kind::Exponential, 1, 0).is_none());
        // With a shift making y+s−ε ≥ 1 it works.
        let frag = longest_fragment(&values, 0, Kind::Exponential, 1, 2).unwrap();
        assert!(!frag.is_empty());
        check_eps_bound(&values, &frag, 1, 2);
    }

    #[test]
    fn greedy_partition_tiles_input() {
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<i64> = (0..500).map(|_| rng.random_range(-100..100)).collect();
        for kind in [Kind::Linear, Kind::Quadratic, Kind::Sqrt] {
            let frags = greedy_partition(&values, kind, 5, 0);
            assert_eq!(frags[0].start, 0);
            assert_eq!(frags.last().unwrap().end, values.len());
            for w in frags.windows(2) {
                assert_eq!(w[0].end, w[1].start, "gap/overlap in partition");
            }
        }
    }

    #[test]
    fn greedy_partition_is_minimal_for_linear() {
        // Optimality of the greedy longest-fragment strategy (Corollary 1):
        // compare against brute-force minimal partition count via DP.
        let mut rng = StdRng::seed_from_u64(21);
        let values: Vec<i64> = (0..60).map(|k| (k * k / 7) as i64 + rng.random_range(-1..2)).collect();
        let eps = 1u64;
        let greedy = greedy_partition(&values, Kind::Linear, eps, 0).len();
        // DP over all split points with brute feasibility.
        let n = values.len();
        let mut best = vec![usize::MAX; n + 1];
        best[0] = 0;
        for i in 0..n {
            if best[i] == usize::MAX {
                continue;
            }
            for j in i + 1..=n {
                if linear_feasible_brute(&values[i..j], eps) {
                    best[j] = best[j].min(best[i] + 1);
                } else {
                    break;
                }
            }
        }
        assert_eq!(greedy, best[n], "greedy not minimal");
    }

    #[test]
    fn single_point_fragments() {
        let values = vec![42i64];
        for kind in Kind::ALL {
            let frag = longest_fragment(&values, 0, kind, 0, 0).unwrap();
            assert_eq!(frag.len(), 1);
            // Log-domain kinds evaluate exp(ln 42), which may land one ulp
            // below 42 and floor to 41; the corrections absorb this.
            let slack = if kind.log_domain() { 1 } else { 0 };
            assert!(
                (model_value(&frag, 0, 0) - 42).unsigned_abs() <= slack,
                "{kind:?}: model {}",
                model_value(&frag, 0, 0)
            );
        }
    }

    #[test]
    fn view_fit_is_bit_identical_to_inline_fit() {
        let mut rng = StdRng::seed_from_u64(55);
        let values: Vec<i64> = {
            let mut v = -20i64;
            (0..400).map(|_| { v += rng.random_range(-6..7); v }).collect()
        };
        let shift = crate::partition::positivity_shift(&values, 8);
        let view = FitView::new(&values, shift, true);
        for kind in Kind::ALL {
            for eps in [0u64, 2, 8] {
                let mut start = 0;
                while start < values.len() {
                    let a = longest_fragment(&values, start, kind, eps, shift);
                    let b = longest_fragment_in(&view, start, kind, eps);
                    assert_eq!(a, b, "{kind:?} eps={eps} start={start}");
                    start = a.map_or(start + 1, |f| f.end);
                }
            }
        }
    }

    #[test]
    fn floor_to_i64_matches_floor_on_edge_values() {
        let two63 = 9_223_372_036_854_775_808.0f64; // 2^63
        let edges = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            1.5,
            -1.5,
            f64::EPSILON,
            -f64::EPSILON,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            4503599627370495.5, // 2^52 - 0.5
            -4503599627370495.5,
            9007199254740993.0, // rounds to 2^53
            -9007199254740993.0,
            two63,
            -two63,
            f64::from_bits(two63.to_bits() - 1), // largest f64 below 2^63
            -f64::from_bits(two63.to_bits() - 1),
            f64::from_bits(two63.to_bits() + 1),
            -f64::from_bits(two63.to_bits() + 1),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for f in edges {
            assert_eq!(floor_to_i64(f), f.floor() as i64, "f = {f:e} ({:#x})", f.to_bits());
        }
    }

    mod floor_props {
        use super::floor_to_i64;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            #[test]
            fn matches_floor_on_random_bits(bits in any::<u64>()) {
                // The pattern and its neighbours: integer/non-integer
                // boundaries sit one ULP apart.
                for b in [bits.wrapping_sub(1), bits, bits.wrapping_add(1)] {
                    let f = f64::from_bits(b);
                    prop_assert_eq!(floor_to_i64(f), f.floor() as i64, "bits {:#x}", b);
                }
            }

            #[test]
            fn matches_floor_on_moderate_magnitudes(f in -1.0e6f64..1.0e6) {
                prop_assert_eq!(floor_to_i64(f), f.floor() as i64, "f {:e}", f);
            }

            #[test]
            fn matches_floor_near_integers(i in any::<i64>(), frac in 0usize..4) {
                let f = i as f64 + [0.0, 0.25, -0.25, 0.5][frac];
                for g in [f, f64::from_bits(f.to_bits().wrapping_sub(1)), f64::from_bits(f.to_bits() + 1)] {
                    prop_assert_eq!(floor_to_i64(g), g.floor() as i64, "f {:e}", g);
                }
            }
        }
    }

    #[test]
    fn fragment_len_and_empty() {
        let f = Fragment { kind: Kind::Linear, params: Params::constant(0.0), start: 3, end: 7, origin: 3 };
        assert_eq!(f.len(), 4);
        assert!(!f.is_empty());
    }
}
