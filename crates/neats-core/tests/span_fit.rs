//! The partitioner's stage-1 fit reuses one `StabbingLine` for every
//! fragment of a pair and keeps only the fragment end. These properties pin
//! both halves of that: a reset `StabbingLine` is indistinguishable from a
//! fresh one whatever it saw before, and `span_end_in` ends every fragment
//! exactly where `longest_fragment` does — for all eleven kinds, for
//! ε ∈ {0, 1, 2^k}, and where a log-domain transform is undefined (y ≤ ε).

use neats_core::fit::{longest_fragment, span_end_in, FitView, StabbingLine};
use neats_core::Kind;
use proptest::prelude::*;

/// A stream of vertical segments `(t, lo, hi)` with strictly increasing
/// `t`, from `(dt, mid, half)` triples; noisy enough that some adds fail.
fn segments(raw: &[(f64, f64, f64)]) -> Vec<(f64, f64, f64)> {
    let mut t = 0.0;
    raw.iter()
        .map(|&(dt, mid, half)| {
            t += dt;
            (t, mid - half, mid + half)
        })
        .collect()
}

/// Everything a caller can see of a `StabbingLine`: each add's outcome,
/// then the accepted count, the solution line and the slope interval.
type Observed = (Vec<bool>, usize, Option<(f64, f64)>, Option<(f64, f64)>);

/// Feeds `segs` to `line`, stopping at the first rejection, and returns
/// every observable.
fn observe(line: &mut StabbingLine, segs: &[(f64, f64, f64)]) -> Observed {
    let mut outcomes = Vec::new();
    for &(t, lo, hi) in segs {
        let ok = line.try_add(t, lo, hi);
        outcomes.push(ok);
        if !ok {
            break;
        }
    }
    let sol = line.solution().map(|l| (l.slope, l.intercept));
    (outcomes, line.len(), sol, line.slope_interval())
}

/// Values around zero with ε-sized steps, so log-domain kinds (shift 0)
/// meet both defined and undefined transforms.
fn walk(deltas: &[i64], start: i64) -> Vec<i64> {
    let mut v = start;
    deltas.iter().map(|&d| { v += d; v }).collect()
}

const EPSILONS: [u64; 7] = [0, 1, 2, 4, 8, 16, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reset after accepted adds, after a rejected add, and after a stream
    /// that was cut off mid-way: the reused line answers like a fresh one.
    #[test]
    fn reset_line_behaves_like_a_fresh_one(
        before in prop::collection::vec((0.1f64..3.0, -50.0f64..50.0, 0.0f64..4.0), 0..40),
        after in prop::collection::vec((0.1f64..3.0, -50.0f64..50.0, 0.0f64..4.0), 0..40),
        cut in 0usize..40,
    ) {
        let (before, after) = (segments(&before), segments(&after));
        let mut reused = StabbingLine::new();
        // Accepted adds up to `cut`, then — if the stream goes on — more
        // adds until the first rejection.
        observe(&mut reused, &before[..cut.min(before.len())]);
        observe(&mut reused, &before[cut.min(before.len())..]);
        reused.reset();
        prop_assert!(reused.is_empty());
        let got = observe(&mut reused, &after);
        let want = observe(&mut StabbingLine::new(), &after);
        prop_assert_eq!(got, want);
    }

    /// The span-only fit ends where `longest_fragment` ends, at every start,
    /// for every kind and ε, with one line reused across all of them —
    /// including fits that stopped on an undefined (`None`) transform.
    #[test]
    fn span_end_equals_longest_fragment_end(
        deltas in prop::collection::vec(-6i64..7, 1..120),
        start in -4i64..40,
    ) {
        let values = walk(&deltas, start);
        for shift in [0i64, 70] {
            let view = FitView::new(&values, shift, true);
            let mut reused = StabbingLine::new();
            for kind in Kind::ALL {
                for eps in EPSILONS {
                    for k in 0..values.len() {
                        let want = longest_fragment(&values, k, kind, eps, shift).map(|f| f.end);
                        let got = span_end_in(&view, k, kind, eps, &mut reused);
                        prop_assert_eq!(got, want, "{:?} eps={} shift={} start={}", kind, eps, shift, k);
                        // A fresh line ends at the same place and is left
                        // holding the same constraints.
                        let mut fresh = StabbingLine::new();
                        prop_assert_eq!(span_end_in(&view, k, kind, eps, &mut fresh), want);
                        let line = |l: &StabbingLine| l.solution().map(|l| (l.slope, l.intercept));
                        prop_assert_eq!(line(&reused), line(&fresh), "{:?} eps={} start={}", kind, eps, k);
                    }
                }
            }
        }
    }
}

#[test]
fn log_domain_span_is_none_where_y_is_at_most_eps() {
    // y = 0 with ε = 4: ln(y − ε) (and the Gaussian's ln y0) is undefined
    // at the first point.
    let values = [0i64, 10, 11, 12];
    let view = FitView::new(&values, 0, true);
    let mut line = StabbingLine::new();
    for kind in [Kind::Exponential, Kind::Power, Kind::Gaussian] {
        assert_eq!(span_end_in(&view, 0, kind, 4, &mut line), None, "{kind:?}");
        assert!(longest_fragment(&values, 0, kind, 4, 0).is_none(), "{kind:?}");
        // The same line then fits from a defined start.
        let want = longest_fragment(&values, 1, kind, 4, 0).map(|f| f.end);
        assert!(want.is_some());
        assert_eq!(span_end_in(&view, 1, kind, 4, &mut line), want, "{kind:?}");
    }
}
