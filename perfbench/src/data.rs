//! Seeded inputs: the eight generated series and the pinned query plans.
//!
//! Everything the program under test receives is derived here from the
//! workload seed alone, so the same seed gives the same series, the same
//! pack bytes and the same plan on every run and every commit.

use timeseries::Dataset;

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seed for one purpose (`tag`) and one lane (`lane`) of a run.
pub fn sub_seed(seed: u64, tag: u64, lane: u64) -> u64 {
    Rng::new(seed ^ tag.rotate_left(17) ^ lane.rotate_left(41)).next_u64()
}

/// One generator per series, so the codec sees eight different shapes.
pub const DATASETS: [Dataset; 8] = [
    Dataset::IrBioTemp,
    Dataset::Ecg,
    Dataset::AirPressure,
    Dataset::StocksDe,
    Dataset::GeolifeLon,
    Dataset::CityTemp,
    Dataset::BaselWind,
    Dataset::BitcoinPrice,
];

/// First timestamp and spacing of every generated series.
pub const T0: u64 = 1_700_000_000;
pub const STEP: u64 = 30;

/// One generated series: the ground truth every answer is checked against.
#[derive(Clone, Debug)]
pub struct Series {
    pub name: String,
    pub stamps: Vec<u64>,
    pub values: Vec<i64>,
}

impl Series {
    /// Point `k` of the endless stream a live writer sends: the values
    /// repeat with the series' length, the stamps keep rising.
    pub fn cycled(&self, k: usize) -> (u64, i64) {
        (T0 + k as u64 * STEP, self.values[k % self.values.len()])
    }
}

/// The eight series of a run, `points` each.
pub fn generate(seed: u64, points: usize) -> Vec<Series> {
    DATASETS
        .iter()
        .enumerate()
        .map(|(i, ds)| {
            let ts = ds.generate_seeded(points, sub_seed(seed, 1, i as u64));
            Series {
                name: format!("s{i}"),
                stamps: (0..points as u64).map(|k| T0 + k * STEP).collect(),
                values: ts.values().to_vec(),
            }
        })
        .collect()
}

/// A pinned plan of `(series, start)` pairs, drawn as the client needs
/// them: the series in turn, so every series gets the same share of
/// requests whatever the seed, and starts uniform over `0..=points - span`.
/// A point plan uses `span = 1`, a range plan the range length. Client
/// `lane` gets its own independent plan.
#[derive(Clone, Debug)]
pub struct Plan {
    rng: Rng,
    lane: usize,
    series: usize,
    starts: usize,
    i: usize,
}

impl Plan {
    pub fn new(seed: u64, lane: u64, series: usize, points: usize, span: usize) -> Self {
        Self {
            rng: Rng::new(sub_seed(seed, 2, lane)),
            lane: lane as usize,
            series,
            starts: points - span + 1,
            i: 0,
        }
    }
}

impl Iterator for Plan {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let s = (self.i + self.lane) % self.series;
        self.i += 1;
        Some((s, self.rng.below(self.starts)))
    }
}
