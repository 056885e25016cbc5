//! Algorithm 1: partitioning a time series into fragments, each associated
//! with a nonlinear ε-approximation, minimising the encoded bit size.
//!
//! The paper models the problem as a shortest path on a DAG with one node per
//! data point (plus a sink): every fragment `T[i, j−1]` that some pair
//! `(f, ε) ∈ F × E` can ε-approximate contributes the edge `(i, j)` *and all
//! of its prefix and suffix edges*, weighted by the encoded size
//! `w_{f,ε}(i, j) = (j − i)·⌈log(2ε+1)⌉ + κ_f`. Instead of materialising the
//! graph, the algorithm sweeps nodes left to right keeping, per pair, only
//! the fragment overlapping the current node, splitting it into prefix and
//! suffix edges on the fly. Total time O(|F|·|E|·n).
//!
//! ## Two-stage parallel execution
//!
//! The dominant cost — running `MakeApproximation` for every pair at every
//! tiling position — depends only on `values`, never on the DP state: the
//! sweep fits a new fragment for pair `(f, ε)` at node `k` precisely when
//! the pair's previous fragment ends at or before `k`, so the fragments a
//! pair contributes are exactly its greedy tiling of the series.
//! [`partition`] exploits this by splitting Algorithm 1 into
//!
//! 1. **stage 1** — compute each pair's greedy fragment list, with the pairs
//!    fanned out across threads ([`crate::parallel`]) over a shared
//!    [`FitView`] (the hoisted f64 view of the values), and
//! 2. **stage 2** — a cheap sequential sweep that replays the prefix/suffix
//!    edge relaxations from the precomputed lists.
//!
//! The result is bit-identical to the original one-pass sweep, which is kept
//! as [`partition_reference`] and asserted equivalent in the test suite.

use crate::fit::{
    longest_fragment, longest_fragment_in, span_end_in, FitView, Fragment, Kind, StabbingLine,
};
use crate::parallel::{effective_threads, parallel_map_indexed};
use succinct::bits_for_residual_bound;

/// A `(kind, ε)` pair considered by the partitioner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pair {
    /// Function family.
    pub kind: Kind,
    /// Error bound.
    pub eps: u64,
}

/// Configuration of the partitioning algorithm.
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// The `(f, ε)` pairs to consider (the paper's F × E, or a model-selected
    /// subset).
    pub pairs: Vec<Pair>,
    /// Global positivity shift for log-domain kinds (see
    /// [`positivity_shift`]).
    pub shift: i64,
    /// If `true` (lossless NeaTS) edge weights include `(j−i)·⌈log(2ε+1)⌉`
    /// bits of corrections; if `false` (lossy NeaTS-L) only the function
    /// parameters are charged.
    pub lossless: bool,
    /// Per-fragment metadata bits beyond the raw parameters (the paper's
    /// "small metadata": kind tag, start, offsets). Charged into κ_f.
    pub overhead_bits: u64,
    /// Worker threads for stage 1 of [`partition`]. `0` means automatic:
    /// the `NEATS_THREADS` environment variable if set, otherwise all
    /// available cores. The choice never affects the output — the
    /// partitioner is bit-deterministic across thread counts.
    pub threads: usize,
}

impl PartitionConfig {
    /// Lossless configuration over the cross product `kinds × epsilons`.
    pub fn lossless(kinds: &[Kind], epsilons: &[u64], shift: i64) -> Self {
        let pairs = kinds
            .iter()
            .flat_map(|&kind| epsilons.iter().map(move |&eps| Pair { kind, eps }))
            .collect();
        Self { pairs, shift, lossless: true, overhead_bits: DEFAULT_OVERHEAD_BITS, threads: 0 }
    }

    /// Lossy configuration with a single ε (paper §III-B, "Partitioning for
    /// lossy compression").
    pub fn lossy(kinds: &[Kind], eps: u64, shift: i64) -> Self {
        let pairs = kinds.iter().map(|&kind| Pair { kind, eps }).collect();
        Self { pairs, shift, lossless: false, overhead_bits: DEFAULT_OVERHEAD_BITS, threads: 0 }
    }

    /// Sets the stage-1 worker thread count (see [`Self::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// κ_f for a pair: parameter storage plus fixed metadata.
    fn kappa(&self, kind: Kind) -> u64 {
        kind.param_count() as u64 * 64 + self.overhead_bits
    }

    /// Bits per correction for a pair.
    fn correction_width(&self, eps: u64) -> u64 {
        if self.lossless {
            bits_for_residual_bound(eps) as u64
        } else {
            0
        }
    }
}

/// Default per-fragment metadata charge: Elias-Fano start + offset entries,
/// packed width, kind tag, origin delta — about a machine word.
pub const DEFAULT_OVERHEAD_BITS: u64 = 64;

/// The paper's positivity shift (footnote 2): a constant `s` such that
/// `y + s − ε ≥ 1` for every value and every ε in use, enabling log-domain
/// transforms. Zero when the data is already sufficiently positive.
pub fn positivity_shift(values: &[i64], max_eps: u64) -> i64 {
    match values.iter().min() {
        Some(&min) => (max_eps as i64 + 1).saturating_sub(min).max(0),
        None => 0,
    }
}

/// The paper's default error-bound set `E = {0, 2¹, 2², …, 2^⌈log Δ⌉}`
/// (§III-B complexity analysis).
pub fn default_epsilons(delta: u64) -> Vec<u64> {
    let mut eps = vec![0u64];
    if delta > 1 {
        let top = 64 - (delta - 1).leading_zeros(); // ⌈log₂ Δ⌉
        eps.extend((1..=top).map(|i| 1u64 << i));
    }
    eps
}

/// An incoming shortest-path edge recorded for reconstruction.
///
/// Deliberately tiny (12 bytes): the fitted parameters are *not* stored per
/// node — fitting is deterministic, so the backtrack refits the `m ≪ n`
/// winning fragments from their origins instead, keeping the O(n) `prev`
/// array compact.
#[derive(Clone, Copy, Debug)]
struct PrevEdge {
    from: u32,
    origin: u32,
    /// Index into `config.pairs`.
    pair: u32,
}

/// Result of [`partition`]: the chosen fragments plus their ε bounds.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Fragments tiling `[0, n)` in order.
    pub fragments: Vec<Fragment>,
    /// The ε bound each fragment was fitted under (parallel to `fragments`).
    pub epsilons: Vec<u64>,
    /// Total cost of the shortest path in bits (the optimisation objective).
    pub cost_bits: u64,
}

/// Stage 1: the greedy tiling pair `(f, ε)` contributes to the sweep — the
/// exact sequence of fragment spans the reference sweep fits for that pair.
///
/// A fragment is fit at node `k` precisely when the previous one ends at or
/// before `k`; when the transform is undefined at `k` (fit returns `None`)
/// the sweep retries at `k + 1`. Both behaviours are reproduced here, so
/// each span's `start` records where the successful fit happened and gaps
/// encode the `None` stretches.
///
/// Only `(start, end)` spans are kept — 8 bytes per fragment. The DP never
/// needs the fitted parameters (edge weights depend on span length alone),
/// and noisy configurations produce millions of plan fragments, so storing
/// whole [`Fragment`]s here would cost hundreds of MB of allocation
/// traffic. The backtrack refits the few winners instead.
fn pair_plan(view: &FitView<'_>, pair: Pair) -> Vec<(u32, u32)> {
    let n = view.len();
    let mut plan = Vec::new();
    let mut line = StabbingLine::new();
    let mut k = 0usize;
    while k < n {
        match span_end_in(view, k, pair.kind, pair.eps, &mut line) {
            Some(end) => {
                debug_assert!(end > k);
                plan.push((k as u32, end as u32));
                k = end;
            }
            None => k += 1,
        }
    }
    plan
}

/// Runs Algorithm 1 and returns the space-minimising partition.
///
/// This is the two-stage execution (see the module docs): per-pair greedy
/// fragment lists are computed in parallel over `config.threads` workers,
/// then a sequential DP sweep replays the edge relaxations. Output is
/// bit-identical to [`partition_reference`] for every thread count.
///
/// # Panics
/// Panics if `config.pairs` is empty, or if no pair can fit some position
/// (which cannot happen when `config.shift` comes from [`positivity_shift`]).
pub fn partition(values: &[i64], config: &PartitionConfig) -> Partition {
    assert!(!config.pairs.is_empty(), "need at least one (kind, eps) pair");
    let n = values.len();
    if n == 0 {
        return Partition { fragments: Vec::new(), epsilons: Vec::new(), cost_bits: 0 };
    }
    assert!(n < u32::MAX as usize, "series too long for u32 node ids");

    // Stage 1: per-pair greedy tilings, fanned out across threads.
    let with_log = config.pairs.iter().any(|p| p.kind.log_domain());
    let view = FitView::new(values, config.shift, with_log);
    let threads = effective_threads(config.threads);
    let plans: Vec<Vec<(u32, u32)>> =
        parallel_map_indexed(config.pairs.len(), threads, |pi| pair_plan(&view, config.pairs[pi]));

    // Stage 2: the sequential shortest-path sweep, replaying each pair's
    // span list instead of fitting inline.
    let mut dist = vec![u64::MAX; n + 1];
    let mut prev: Vec<Option<PrevEdge>> = vec![None; n + 1];
    dist[0] = 0;

    // Per-pair live span (the edge overlapping the sweep node), as struct
    // of arrays. `reach[pi]` is `dist[start] + κ`, the cost of the span's
    // prefix edges before their correction bits; it is `u64::MAX` — no
    // prefix edge — while the span starts at the sweep node, and for a pair
    // with no live span (whose `end` is 0, so no suffix edge either).
    let pairs = config.pairs.len();
    let mut live_start = vec![0u32; pairs];
    let mut live_end = vec![0u32; pairs];
    let mut reach = vec![u64::MAX; pairs];
    let mut cursor = vec![0usize; pairs];
    let cws: Vec<u64> = config.pairs.iter().map(|p| config.correction_width(p.eps)).collect();
    let kappas: Vec<u64> = config.pairs.iter().map(|p| config.kappa(p.kind)).collect();
    // The pairs due for a new span at each node — where their live span
    // ends, or the next node after a failed fit — as intrusive lists, so a
    // node visits only the pairs that change there.
    const NIL: u32 = u32::MAX;
    let mut due_head = vec![NIL; n + 1];
    let mut due_next = vec![NIL; pairs];
    for pi in (0..pairs).rev() {
        due_next[pi] = due_head[0];
        due_head[0] = pi as u32;
    }
    let mut fresh: Vec<usize> = Vec::with_capacity(pairs);

    for k in 0..n {
        let k32 = k as u32;
        // A due pair would fit at node k; the plan has that fragment iff
        // the fit succeeded (its start is exactly k).
        fresh.clear();
        let mut due = std::mem::replace(&mut due_head[k], NIL);
        while due != NIL {
            let pi = due as usize;
            due = due_next[pi];
            let next_due = match plans[pi].get(cursor[pi]) {
                Some(&(s, e)) if s == k32 => {
                    cursor[pi] += 1;
                    (live_start[pi], live_end[pi]) = (s, e);
                    fresh.push(pi);
                    e
                }
                _ => {
                    (live_start[pi], live_end[pi]) = (k32, 0);
                    k32 + 1
                }
            };
            reach[pi] = u64::MAX;
            due_next[pi] = due_head[next_due as usize];
            due_head[next_due as usize] = pi as u32;
        }
        // The prefix edges (start, k) of the spans that began before k: one
        // reduction to the first minimum, the candidate a pair-ordered
        // sequence of strict-improvement relaxations would keep.
        let mut best = (u64::MAX, 0usize);
        for pi in 0..pairs {
            let cand = reach[pi].saturating_add(u64::from(k32 - live_start[pi]) * cws[pi]);
            if cand < best.0 {
                best = (cand, pi);
            }
        }
        if best.0 < dist[k] {
            let (cand, pi) = best;
            let s = live_start[pi];
            dist[k] = cand;
            prev[k] = Some(PrevEdge { from: s, origin: s, pair: pi as u32 });
        }
        // dist[k] is final: spans starting here get their prefix reach.
        let base = dist[k];
        for &pi in &fresh {
            reach[pi] = base.saturating_add(kappas[pi]);
        }
        // The suffix edges (k, end) — the full edge when k == start.
        if base == u64::MAX {
            continue;
        }
        for pi in 0..pairs {
            let e = live_end[pi];
            if e > k32 {
                let cand = base + u64::from(e - k32) * cws[pi] + kappas[pi];
                let e = e as usize;
                if cand < dist[e] {
                    dist[e] = cand;
                    prev[e] = Some(PrevEdge { from: k32, origin: live_start[pi], pair: pi as u32 });
                }
            }
        }
    }

    backtrack(n, &dist, &prev, &config.pairs, |origin, pair| {
        longest_fragment_in(&view, origin, pair.kind, pair.eps)
    })
}

/// The original inline one-pass sweep of Algorithm 1, kept as the executable
/// specification the two-stage [`partition`] is tested bit-identical
/// against (and as the "point 0" measured by the perf baseline harness).
pub fn partition_reference(values: &[i64], config: &PartitionConfig) -> Partition {
    assert!(!config.pairs.is_empty(), "need at least one (kind, eps) pair");
    let n = values.len();
    if n == 0 {
        return Partition { fragments: Vec::new(), epsilons: Vec::new(), cost_bits: 0 };
    }
    assert!(n < u32::MAX as usize, "series too long for u32 node ids");

    let mut dist = vec![u64::MAX; n + 1];
    let mut prev: Vec<Option<PrevEdge>> = vec![None; n + 1];
    dist[0] = 0;

    // Per-pair live fragment (the edge overlapping the sweep node).
    let mut live: Vec<Option<Fragment>> = vec![None; config.pairs.len()];
    // Cached per-pair constants.
    let weights: Vec<(u64, u64)> = config
        .pairs
        .iter()
        .map(|p| (config.correction_width(p.eps), config.kappa(p.kind)))
        .collect();

    for k in 0..n {
        for (pi, pair) in config.pairs.iter().enumerate() {
            let needs_new = live[pi].is_none_or(|f| f.end <= k);
            if needs_new {
                // A new fragment starts at the sweep node.
                live[pi] = longest_fragment(values, k, pair.kind, pair.eps, config.shift);
            } else if let Some(f) = live[pi] {
                // Relax the prefix edge (f.start, k).
                let (cw, kappa) = weights[pi];
                relax(&mut dist, &mut prev, f.start, k, cw, kappa, pi as u32, f.origin as u32);
            }
        }
        for (pi, _) in config.pairs.iter().enumerate() {
            if let Some(f) = live[pi] {
                // Relax the suffix edge (k, f.end) — the full edge when
                // k == f.start.
                let (cw, kappa) = weights[pi];
                relax(&mut dist, &mut prev, k, f.end, cw, kappa, pi as u32, f.origin as u32);
            }
        }
    }

    backtrack(n, &dist, &prev, &config.pairs, |origin, pair| {
        longest_fragment(values, origin, pair.kind, pair.eps, config.shift)
    })
}

/// Reads the shortest path backwards (paper lines 21–26), refitting each
/// winning edge's function from its origin to recover the parameters
/// (fitting is deterministic, so this reproduces the exact params the sweep
/// saw without having stored them per node).
fn backtrack(
    n: usize,
    dist: &[u64],
    prev: &[Option<PrevEdge>],
    pairs: &[Pair],
    refit: impl Fn(usize, Pair) -> Option<Fragment>,
) -> Partition {
    let mut fragments = Vec::new();
    let mut epsilons = Vec::new();
    let mut k = n;
    while k != 0 {
        let e = prev[k].unwrap_or_else(|| panic!("node {k} unreachable: no pair covers it"));
        let pair = pairs[e.pair as usize];
        let fitted = refit(e.origin as usize, pair)
            .expect("refit of an edge the sweep fitted successfully");
        debug_assert_eq!(fitted.origin, e.origin as usize);
        debug_assert!(fitted.end >= k, "refit shorter than the recorded edge");
        fragments.push(Fragment {
            kind: pair.kind,
            params: fitted.params,
            start: e.from as usize,
            end: k,
            origin: e.origin as usize,
        });
        epsilons.push(pair.eps);
        k = e.from as usize;
    }
    fragments.reverse();
    epsilons.reverse();
    Partition { fragments, epsilons, cost_bits: dist[n] }
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn relax(
    dist: &mut [u64],
    prev: &mut [Option<PrevEdge>],
    a: usize,
    b: usize,
    cw: u64,
    kappa: u64,
    pair: u32,
    origin: u32,
) {
    if a >= b || dist[a] == u64::MAX {
        return;
    }
    let w = (b - a) as u64 * cw + kappa;
    let cand = dist[a] + w;
    if cand < dist[b] {
        dist[b] = cand;
        prev[b] = Some(PrevEdge { from: a as u32, origin, pair });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::max_abs_residual;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn check_partition(values: &[i64], part: &Partition, shift: i64) {
        // Tiles [0, n) exactly.
        assert_eq!(part.fragments.len(), part.epsilons.len());
        if values.is_empty() {
            assert!(part.fragments.is_empty());
            return;
        }
        assert_eq!(part.fragments[0].start, 0);
        assert_eq!(part.fragments.last().unwrap().end, values.len());
        for w in part.fragments.windows(2) {
            assert_eq!(w[0].end, w[1].start, "gap or overlap");
        }
        // Every fragment respects its ε (±1 floor/float slack; the layout
        // widens correction cells when needed).
        for (f, &eps) in part.fragments.iter().zip(&part.epsilons) {
            let r = max_abs_residual(values, f, shift);
            assert!(r <= eps + 1, "fragment {:?} residual {r} > eps {eps}", f.kind);
            assert!(f.origin <= f.start, "origin after start");
        }
    }

    #[test]
    fn empty_series() {
        let cfg = PartitionConfig::lossless(&[Kind::Linear], &[0, 2], 0);
        let p = partition(&[], &cfg);
        assert!(p.fragments.is_empty());
        assert_eq!(p.cost_bits, 0);
    }

    #[test]
    fn single_value() {
        let cfg = PartitionConfig::lossless(&[Kind::Linear], &[0], 0);
        let p = partition(&[42], &cfg);
        check_partition(&[42], &p, 0);
        assert_eq!(p.fragments.len(), 1);
    }

    #[test]
    fn exact_line_single_fragment_eps0() {
        let values: Vec<i64> = (0..1000).map(|k| 5 * k - 17).collect();
        let cfg = PartitionConfig::lossless(&[Kind::Linear], &[0], 0);
        let p = partition(&values, &cfg);
        check_partition(&values, &p, 0);
        assert_eq!(p.fragments.len(), 1, "an exact line is one fragment");
        // Cost: κ only (0-bit corrections).
        assert_eq!(p.cost_bits, 2 * 64 + DEFAULT_OVERHEAD_BITS);
    }

    #[test]
    fn positivity_shift_values() {
        assert_eq!(positivity_shift(&[5, 10], 2), 0);
        assert_eq!(positivity_shift(&[0, 10], 2), 3);
        assert_eq!(positivity_shift(&[-7], 4), 12);
        assert_eq!(positivity_shift(&[], 4), 0);
        assert_eq!(positivity_shift(&[3], 2), 0);
        assert_eq!(positivity_shift(&[2], 2), 1);
    }

    #[test]
    fn default_epsilons_follow_paper() {
        assert_eq!(default_epsilons(1), vec![0]);
        assert_eq!(default_epsilons(2), vec![0, 2]);
        assert_eq!(default_epsilons(5), vec![0, 2, 4, 8]); // ⌈log₂ 5⌉ = 3
        assert_eq!(default_epsilons(1024), vec![0, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]);
    }

    #[test]
    fn partition_cost_never_worse_than_single_pair_greedy() {
        // Optimality sanity: the DP with pairs {(linear, ε)} must cost no more
        // than the greedy minimal-fragment partition with the same pair.
        let mut rng = StdRng::seed_from_u64(1);
        let values: Vec<i64> = {
            let mut v = 0i64;
            (0..500).map(|_| { v += rng.random_range(-10..11); v }).collect()
        };
        for eps in [0u64, 2, 8] {
            let cfg = PartitionConfig::lossless(&[Kind::Linear], &[eps], 0);
            let p = partition(&values, &cfg);
            check_partition(&values, &p, 0);
            let greedy = crate::fit::greedy_partition(&values, Kind::Linear, eps, 0);
            let cw = bits_for_residual_bound(eps) as u64;
            let greedy_cost: u64 = greedy
                .iter()
                .map(|f| (f.len() as u64) * cw + 2 * 64 + DEFAULT_OVERHEAD_BITS)
                .sum();
            assert!(
                p.cost_bits <= greedy_cost,
                "eps={eps}: dp {} > greedy {greedy_cost}",
                p.cost_bits
            );
        }
    }

    #[test]
    fn dp_beats_greedy_on_crafted_input() {
        // A long line followed by a parabola: the multi-kind DP should choose
        // linear for the first part and quadratic for the second, costing less
        // than either kind alone.
        let mut values: Vec<i64> = (0..300).map(|k| 2 * k + 5).collect();
        values.extend((0..300).map(|k| 600 + k * k / 3));
        let shift = 0;
        let both = PartitionConfig::lossless(&[Kind::Linear, Kind::Quadratic], &[0, 2], shift);
        let lin_only = PartitionConfig::lossless(&[Kind::Linear], &[0, 2], shift);
        let p_both = partition(&values, &both);
        let p_lin = partition(&values, &lin_only);
        check_partition(&values, &p_both, shift);
        check_partition(&values, &p_lin, shift);
        assert!(p_both.cost_bits <= p_lin.cost_bits);
        let kinds_used: std::collections::HashSet<_> =
            p_both.fragments.iter().map(|f| f.kind).collect();
        assert!(kinds_used.contains(&Kind::Quadratic), "quadratic unused: {kinds_used:?}");
    }

    #[test]
    fn multi_eps_choice_adapts_to_noise_level() {
        // First half: exact line (wants ε = 0). Second half: noisy line
        // (wants larger ε). The DP should not pay big corrections everywhere.
        let mut rng = StdRng::seed_from_u64(9);
        let mut values: Vec<i64> = (0..400).map(|k| 3 * k).collect();
        values.extend((0..400).map(|k| 1200 + 3 * k + rng.random_range(-50..51)));
        let cfg = PartitionConfig::lossless(&[Kind::Linear], &[0, 2, 8, 32, 64], 0);
        let p = partition(&values, &cfg);
        check_partition(&values, &p, 0);
        // The clean prefix should be covered by few fragments with tiny ε.
        let first = &p.fragments[0];
        assert!(first.len() >= 300, "clean prefix fragmented: len {}", first.len());
        assert!(p.epsilons[0] <= 2, "clean prefix got eps {}", p.epsilons[0]);
    }

    #[test]
    fn lossy_config_charges_only_parameters() {
        let values: Vec<i64> = (0..100).map(|k| k * k).collect();
        let cfg = PartitionConfig::lossy(&[Kind::Linear, Kind::Quadratic], 3, 0);
        let p = partition(&values, &cfg);
        check_partition(&values, &p, 0);
        // cost = Σ κ_f, no correction term
        let expected: u64 = p
            .fragments
            .iter()
            .map(|f| f.kind.param_count() as u64 * 64 + DEFAULT_OVERHEAD_BITS)
            .sum();
        assert_eq!(p.cost_bits, expected);
    }

    #[test]
    fn log_domain_kinds_with_shift() {
        let mut rng = StdRng::seed_from_u64(33);
        let values: Vec<i64> = {
            let mut v = -50i64;
            (0..300).map(|_| { v += rng.random_range(-3..5); v }).collect()
        };
        let epsilons = [0u64, 2, 8];
        let shift = positivity_shift(&values, 8);
        let cfg = PartitionConfig::lossless(
            &[Kind::Linear, Kind::Exponential, Kind::Power, Kind::Gaussian],
            &epsilons,
            shift,
        );
        let p = partition(&values, &cfg);
        check_partition(&values, &p, shift);
    }

    #[test]
    fn suffix_edges_preserve_origin() {
        // Force a situation where suffix edges matter and verify origins are
        // recorded (origin ≤ start with correct residuals, already asserted
        // in check_partition on every test).
        let mut rng = StdRng::seed_from_u64(13);
        let values: Vec<i64> = {
            let mut v = 0i64;
            (0..600).map(|i| {
                if i % 97 == 0 { v += rng.random_range(-200..200); }
                v += rng.random_range(-2..3);
                v
            }).collect()
        };
        let cfg = PartitionConfig::lossless(
            &Kind::NEATS_DEFAULT,
            &[0, 2, 8],
            positivity_shift(&values, 8),
        );
        let p = partition(&values, &cfg);
        check_partition(&values, &p, cfg.shift);
    }
}
