//! Inputs shared by several integration suites.

use rand::{rngs::StdRng, Rng, SeedableRng};

/// The shape zoo: random walks, regime switches, smooth nonlinear shapes,
/// constants, and values that go negative (exercising the shift).
pub fn series(shape: usize, n: usize, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    match shape % 5 {
        0 => {
            // plain random walk
            let mut v = 0i64;
            (0..n).map(|_| { v += rng.random_range(-25..26); v }).collect()
        }
        1 => {
            // regime switches: jumps every ~80 points
            let mut v = 100i64;
            (0..n)
                .map(|i| {
                    if i % 83 == 0 {
                        v += rng.random_range(-500..500);
                    }
                    v += rng.random_range(-3..4);
                    v
                })
                .collect()
        }
        2 => {
            // smooth sine + noise (nonlinear kinds win here)
            (0..n)
                .map(|k| {
                    (3000.0 * ((k as f64) / 40.0).sin()) as i64 + rng.random_range(-5..6)
                })
                .collect()
        }
        3 => {
            // mostly constant with occasional spikes
            (0..n).map(|_| if rng.random_range(0..50) == 0 { rng.random_range(-1000..1000) } else { 7 }).collect()
        }
        _ => {
            // negative-trending walk (forces a positivity shift)
            let mut v = -50i64;
            (0..n).map(|_| { v += rng.random_range(-9..8); v }).collect()
        }
    }
}
