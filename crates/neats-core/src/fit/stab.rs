//! Online stabbing-line maintenance — the engine behind Theorem 1.
//!
//! After the paper's per-kind change of variable, every ε-constraint has the
//! form `α_k ≤ m·t_k + b ≤ ω_k` with `t_k` strictly increasing: geometrically,
//! the line `y = m·t + b` must *stab* the vertical segment
//! `[(t_k, α_k), (t_k, ω_k)]` for every k. O'Rourke (CACM 1981) showed this
//! feasibility can be maintained online in amortised O(1) per segment by
//! tracking the extreme-slope feasible lines and two convex hulls of segment
//! endpoints. This module implements that algorithm; `fit::kinds` supplies
//! the per-function-kind transforms that feed it.
//!
//! Invariants maintained after each accepted segment:
//! * `line_max` — the feasible line of maximum slope, supported by a *floor*
//!   endpoint `(t_i, α_i)` on the left and a *ceiling* endpoint `(t_j, ω_j)`
//!   on the right (i < j).
//! * `line_min` — the feasible line of minimum slope, supported by a ceiling
//!   endpoint on the left and a floor endpoint on the right.
//! * `floor_hull` — the upper convex hull of floor endpoints seen so far
//!   (candidate left supports for future `line_max` rotations).
//! * `ceil_hull` — the lower convex hull of ceiling endpoints (candidate
//!   left supports for future `line_min` rotations).

/// A 2D point in the transformed (t, value) space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// Transformed abscissa `t_k`.
    pub t: f64,
    /// Transformed ordinate (`α_k` or `ω_k`).
    pub v: f64,
}

impl Point {
    fn new(t: f64, v: f64) -> Self {
        Self { t, v }
    }
}

/// A line `y = slope·t + intercept` in the transformed space, i.e. a pair
/// `(m, b)` of feasible (transformed) function parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Line {
    /// Slope `m`.
    pub slope: f64,
    /// Intercept `b`.
    pub intercept: f64,
}

impl Line {
    /// Evaluates the line at `t`.
    #[inline]
    pub fn at(&self, t: f64) -> f64 {
        self.slope * t + self.intercept
    }
}

#[inline]
fn slope_between(a: Point, b: Point) -> f64 {
    (b.v - a.v) / (b.t - a.t)
}

/// Cross product of (b−a) × (c−a); positive for a counter-clockwise turn.
#[inline]
fn cross(a: Point, b: Point, c: Point) -> f64 {
    (b.t - a.t) * (c.v - a.v) - (b.v - a.v) * (c.t - a.t)
}

/// An extreme line, given by its left support point and its slope towards
/// the right support point (computed once, when the pair is formed).
#[derive(Clone, Copy, Debug)]
struct Support {
    left: Point,
    slope: f64,
}

impl Support {
    #[inline]
    fn through(left: Point, right: Point) -> Self {
        Self { left, slope: slope_between(left, right) }
    }

    #[inline]
    fn at(&self, t: f64) -> f64 {
        self.left.v + self.slope * (t - self.left.t)
    }
}

/// Online feasibility of a stabbing line through vertical segments with
/// strictly increasing abscissae.
///
/// One instance can serve any number of fragments: [`Self::reset`] empties
/// it while keeping the hull buffers, so a fitter that reuses it allocates
/// only when a hull outgrows every earlier one.
#[derive(Clone, Debug)]
pub struct StabbingLine {
    /// Upper hull of floor points, front-trimmed by `floor_start`. Its
    /// first entry is always the first segment's floor.
    floor_hull: Vec<Point>,
    floor_start: usize,
    /// Lower hull of ceiling points, front-trimmed by `ceil_start`. Its
    /// first entry is always the first segment's ceiling.
    ceil_hull: Vec<Point>,
    ceil_start: usize,
    /// The extreme lines; meaningful once two segments are accepted.
    line_max: Support,
    line_min: Support,
    count: usize,
    last_t: f64,
}

impl Default for StabbingLine {
    fn default() -> Self {
        Self::new()
    }
}

impl StabbingLine {
    /// Creates an empty instance (no segments yet; any line is feasible).
    pub fn new() -> Self {
        let unset = Support { left: Point::new(0.0, 0.0), slope: 0.0 };
        Self {
            floor_hull: Vec::new(),
            floor_start: 0,
            ceil_hull: Vec::new(),
            ceil_start: 0,
            line_max: unset,
            line_min: unset,
            count: 0,
            last_t: f64::NEG_INFINITY,
        }
    }

    /// Forgets every accepted segment, keeping the hull buffers' capacity.
    /// Afterwards the instance behaves exactly like [`Self::new`].
    pub fn reset(&mut self) {
        self.floor_hull.clear();
        self.floor_start = 0;
        self.ceil_hull.clear();
        self.ceil_start = 0;
        self.count = 0;
        self.last_t = f64::NEG_INFINITY;
    }

    /// Number of segments accepted so far.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no segment has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Tries to add the vertical segment `[lo, hi]` at abscissa `t`.
    ///
    /// Returns `true` if a stabbing line still exists (the segment is
    /// accepted and the state updated); `false` if adding the segment would
    /// make the problem infeasible (the state is left unchanged, ending the
    /// fragment as in Theorem 1).
    ///
    /// `t` must be strictly greater than the previous abscissa and
    /// `lo ≤ hi`; non-finite inputs are rejected.
    #[inline]
    pub fn try_add(&mut self, t: f64, lo: f64, hi: f64) -> bool {
        if !(t.is_finite() && lo.is_finite() && hi.is_finite()) || lo > hi || t <= self.last_t {
            return false;
        }
        let floor = Point::new(t, lo);
        let ceil = Point::new(t, hi);
        match self.count {
            0 => {
                self.floor_hull.push(floor);
                self.ceil_hull.push(ceil);
            }
            1 => {
                // Max-slope line: from the first floor up to the new ceiling.
                self.line_max = Support::through(self.floor_hull[0], ceil);
                // Min-slope line: from the first ceiling down to the new floor.
                self.line_min = Support::through(self.ceil_hull[0], floor);
                self.push_floor(floor);
                self.push_ceil(ceil);
            }
            _ => {
                let ymax = self.line_max.at(t);
                let ymin = self.line_min.at(t);
                // Feasibility: even the extreme lines must reach the segment.
                if ymax < lo || ymin > hi {
                    return false;
                }
                // The new floor may force the min slope to rotate upwards.
                if ymin < lo {
                    self.line_min = self.rotate_min(floor);
                }
                // The new ceiling may force the max slope to rotate downwards.
                if ymax > hi {
                    self.line_max = self.rotate_max(ceil);
                }
                self.push_floor(floor);
                self.push_ceil(ceil);
            }
        }
        self.count += 1;
        self.last_t = t;
        true
    }

    /// The new `line_min` through `p`: its left support is the
    /// ceiling-hull point maximising the slope towards `p`, found by
    /// advancing the hull front.
    #[inline]
    fn rotate_min(&mut self, p: Point) -> Support {
        let hull = &self.ceil_hull;
        let mut i = self.ceil_start;
        let mut slope = slope_between(hull[i], p);
        while i + 1 < hull.len() {
            let next = slope_between(hull[i + 1], p);
            if next >= slope {
                i += 1;
                slope = next;
            } else {
                break;
            }
        }
        self.ceil_start = i;
        Support { left: hull[i], slope }
    }

    /// The new `line_max` through `p`: its left support is the floor-hull
    /// point minimising the slope towards `p`, found by advancing the hull
    /// front.
    #[inline]
    fn rotate_max(&mut self, p: Point) -> Support {
        let hull = &self.floor_hull;
        let mut i = self.floor_start;
        let mut slope = slope_between(hull[i], p);
        while i + 1 < hull.len() {
            let next = slope_between(hull[i + 1], p);
            if next <= slope {
                i += 1;
                slope = next;
            } else {
                break;
            }
        }
        self.floor_start = i;
        Support { left: hull[i], slope }
    }

    /// Inserts a floor point into the upper hull (clockwise turns only).
    #[inline]
    fn push_floor(&mut self, p: Point) {
        while self.floor_hull.len() >= self.floor_start + 2 {
            let n = self.floor_hull.len();
            if cross(self.floor_hull[n - 2], self.floor_hull[n - 1], p) >= 0.0 {
                self.floor_hull.pop();
            } else {
                break;
            }
        }
        self.floor_hull.push(p);
    }

    /// Inserts a ceiling point into the lower hull (counter-clockwise turns
    /// only).
    #[inline]
    fn push_ceil(&mut self, p: Point) {
        while self.ceil_hull.len() >= self.ceil_start + 2 {
            let n = self.ceil_hull.len();
            if cross(self.ceil_hull[n - 2], self.ceil_hull[n - 1], p) <= 0.0 {
                self.ceil_hull.pop();
            } else {
                break;
            }
        }
        self.ceil_hull.push(p);
    }

    /// Returns a feasible line for all accepted segments, or `None` if no
    /// segment was accepted.
    ///
    /// With two or more segments, the returned line bisects the extreme
    /// slopes through the intersection point of the two extreme lines, which
    /// is feasible by convexity of the (m, b) polygon (paper §II).
    pub fn solution(&self) -> Option<Line> {
        match self.count {
            0 => None,
            1 => {
                let (f, c) = (self.floor_hull[0], self.ceil_hull[0]);
                Some(Line { slope: 0.0, intercept: (f.v + c.v) / 2.0 })
            }
            _ => {
                let (lmax, lmin) = (self.line_max, self.line_min);
                let (smax, smin) = (lmax.slope, lmin.slope);
                let slope = 0.5 * (smax + smin);
                // Intersection of the two extreme lines.
                let bmax = lmax.left.v - smax * lmax.left.t;
                let bmin = lmin.left.v - smin * lmin.left.t;
                let intercept = if (smax - smin).abs() > f64::EPSILON * (1.0 + smax.abs()) {
                    let ix = (bmin - bmax) / (smax - smin);
                    let iy = smax * ix + bmax;
                    iy - slope * ix
                } else {
                    0.5 * (bmax + bmin)
                };
                Some(Line { slope, intercept })
            }
        }
    }

    /// The current feasible slope interval `[min, max]`; `None` with fewer
    /// than two segments (where the slope is unconstrained).
    pub fn slope_interval(&self) -> Option<(f64, f64)> {
        (self.count >= 2).then_some((self.line_min.slope, self.line_max.slope))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Brute-force feasibility: does a line stab every segment? Checked by
    /// LP over the candidate support slopes — O(n²) pairs suffice because an
    /// extreme feasible line can always be rotated onto two endpoints.
    fn feasible_brute(segs: &[(f64, f64, f64)]) -> bool {
        if segs.len() <= 2 {
            return segs.iter().all(|&(_, lo, hi)| lo <= hi);
        }
        // Max slope from pairs (floor_i, ceil_j) i<j; min slope from (ceil_i, floor_j).
        let mut smax = f64::INFINITY;
        let mut smin = f64::NEG_INFINITY;
        for i in 0..segs.len() {
            for j in i + 1..segs.len() {
                let dt = segs[j].0 - segs[i].0;
                smax = smax.min((segs[j].2 - segs[i].1) / dt);
                smin = smin.max((segs[j].1 - segs[i].2) / dt);
            }
        }
        if smin > smax + 1e-9 {
            return false;
        }
        // Check that some intercept works for a few candidate slopes.
        for &m in &[smin, smax, 0.5 * (smin + smax)] {
            let mut blo = f64::NEG_INFINITY;
            let mut bhi = f64::INFINITY;
            for &(t, lo, hi) in segs {
                blo = blo.max(lo - m * t);
                bhi = bhi.min(hi - m * t);
            }
            if blo <= bhi + 1e-9 {
                return true;
            }
        }
        false
    }

    fn check_line_stabs(line: Line, segs: &[(f64, f64, f64)], tol: f64) {
        for &(t, lo, hi) in segs {
            let y = line.at(t);
            assert!(
                y >= lo - tol && y <= hi + tol,
                "line {line:?} misses segment at t={t}: y={y} not in [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn empty_has_no_solution() {
        let s = StabbingLine::new();
        assert!(s.solution().is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn single_segment_horizontal_midline() {
        let mut s = StabbingLine::new();
        assert!(s.try_add(1.0, 3.0, 7.0));
        let l = s.solution().unwrap();
        assert_eq!(l.slope, 0.0);
        assert_eq!(l.intercept, 5.0);
    }

    #[test]
    fn two_segments_always_feasible() {
        let mut s = StabbingLine::new();
        assert!(s.try_add(1.0, 0.0, 1.0));
        assert!(s.try_add(2.0, 100.0, 101.0));
        let l = s.solution().unwrap();
        check_line_stabs(l, &[(1.0, 0.0, 1.0), (2.0, 100.0, 101.0)], 1e-9);
    }

    #[test]
    fn rejects_decreasing_t_and_bad_input() {
        let mut s = StabbingLine::new();
        assert!(s.try_add(2.0, 0.0, 1.0));
        assert!(!s.try_add(2.0, 0.0, 1.0)); // equal t
        assert!(!s.try_add(1.0, 0.0, 1.0)); // smaller t
        assert!(!s.try_add(3.0, 1.0, 0.0)); // lo > hi
        assert!(!s.try_add(f64::NAN, 0.0, 1.0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn exact_line_accepts_many_points() {
        // y = 2t + 1 with ±0.5 slack accepts any number of points.
        let mut s = StabbingLine::new();
        for k in 1..=1000 {
            let t = k as f64;
            let y = 2.0 * t + 1.0;
            assert!(s.try_add(t, y - 0.5, y + 0.5), "at k={k}");
        }
        let l = s.solution().unwrap();
        assert!((l.slope - 2.0).abs() < 1e-6);
        assert!((l.intercept - 1.0).abs() < 1e-3);
    }

    #[test]
    fn detects_infeasibility_on_break() {
        // A v-shape that no single line with tight slack can follow.
        let mut s = StabbingLine::new();
        assert!(s.try_add(1.0, 9.9, 10.1));
        assert!(s.try_add(2.0, 4.9, 5.1));
        assert!(s.try_add(3.0, 0.0, 0.2)); // still on the descending line
        assert!(!s.try_add(4.0, 4.9, 5.1)); // turns back up: infeasible
        assert_eq!(s.len(), 3);
        // State unchanged: solution still stabs the first three.
        let l = s.solution().unwrap();
        check_line_stabs(l, &[(1.0, 9.9, 10.1), (2.0, 4.9, 5.1), (3.0, 0.0, 0.2)], 1e-9);
    }

    #[test]
    fn matches_brute_force_on_random_streams() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..300 {
            let n = rng.random_range(3..30);
            let noise = rng.random_range(0.1..5.0);
            let slope = rng.random_range(-10.0..10.0);
            let mut segs: Vec<(f64, f64, f64)> = Vec::new();
            let mut t = 0.0;
            for _ in 0..n {
                t += rng.random_range(0.1..3.0);
                let mid = slope * t + rng.random_range(-noise..noise);
                let half = rng.random_range(0.0..noise);
                segs.push((t, mid - half, mid + half));
            }
            let mut s = StabbingLine::new();
            let mut accepted = Vec::new();
            for &(t, lo, hi) in &segs {
                if s.try_add(t, lo, hi) {
                    accepted.push((t, lo, hi));
                } else {
                    break;
                }
            }
            // 1. whatever was accepted must be brute-force feasible
            assert!(feasible_brute(&accepted), "trial {trial}: accepted set infeasible");
            // 2. the returned line must stab all accepted segments
            if let Some(line) = s.solution() {
                check_line_stabs(line, &accepted, 1e-6);
            }
            // 3. maximality: if we stopped early, accepted + next must be infeasible
            if accepted.len() < segs.len() {
                let mut extended = accepted.clone();
                extended.push(segs[accepted.len()]);
                assert!(
                    !feasible_brute(&extended),
                    "trial {trial}: stopped early at {} although feasible",
                    accepted.len()
                );
            }
        }
    }

    #[test]
    fn degenerate_zero_width_segments_exact_interpolation() {
        // Segments of zero height on a line: must accept all of them.
        let mut s = StabbingLine::new();
        for k in 1..=100 {
            let t = k as f64;
            let y = -3.0 * t + 7.0;
            assert!(s.try_add(t, y, y));
        }
        let l = s.solution().unwrap();
        assert!((l.slope + 3.0).abs() < 1e-9);
        assert!((l.intercept - 7.0).abs() < 1e-7);
    }

    #[test]
    fn slope_interval_narrows() {
        let mut s = StabbingLine::new();
        s.try_add(1.0, 0.0, 2.0);
        s.try_add(2.0, 1.0, 3.0);
        let (lo1, hi1) = s.slope_interval().unwrap();
        s.try_add(3.0, 2.0, 4.0);
        let (lo2, hi2) = s.slope_interval().unwrap();
        assert!(lo2 >= lo1 - 1e-12 && hi2 <= hi1 + 1e-12);
        assert!(lo2 <= hi2);
    }
}
