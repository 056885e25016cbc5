//! Golden archive digests: the CRC-64 of the archive bytes the builder
//! produces for fixed inputs, pinned as constants.
//!
//! `partition_equivalence` proves the two-stage partitioner equal to
//! `partition_reference`, but both call the same fitter, so a change in the
//! fit arithmetic (a different slope, a different fragment end) would move
//! both sides at once and still pass. These digests catch that: any change
//! to fitting, partitioning, encoding or serialisation that alters a single
//! archive byte fails here.
//!
//! Inputs: the eight `timeseries::Dataset` generators the end-to-end
//! benchmark serves, at 4096 and 8192 points, plus the shape zoo shared
//! with `partition_equivalence`. Each is built lossless with the default
//! kinds, lossy (NeaTS-L) under ε = 16, and — for the zoo — lossless over
//! all eleven kinds. On a mismatch the test prints the full recomputed
//! table.

use neats_core::{Kind, NeaTS};
use succinct::crc64;
use timeseries::{Dataset, TimeSeries};

mod common;

const DATASETS: [Dataset; 8] = [
    Dataset::IrBioTemp,
    Dataset::Ecg,
    Dataset::AirPressure,
    Dataset::StocksDe,
    Dataset::GeolifeLon,
    Dataset::CityTemp,
    Dataset::BaselWind,
    Dataset::BitcoinPrice,
];

const LOSSY_EPS: u64 = 16;

/// `(name, crc64(archive bytes))`. A change that alters any of these
/// changes the archive format or the fit arithmetic, and must say so.
const GOLDEN: &[(&str, u64)] = &[
    ("IT/4096/lossless", 0x0c1b25558cf04316),
    ("IT/4096/lossy16", 0xd0dff062dfcf9afc),
    ("ECG/4096/lossless", 0x16ad8f89a9d29201),
    ("ECG/4096/lossy16", 0xa77512a02320ba38),
    ("AP/4096/lossless", 0xabe13f6a89e9798e),
    ("AP/4096/lossy16", 0x0583f26fe1a96b76),
    ("GE/4096/lossless", 0xbcf06be5c8db25ab),
    ("GE/4096/lossy16", 0x12598b815f21ce5b),
    ("LON/4096/lossless", 0x4a44914c6fa16bbf),
    ("LON/4096/lossy16", 0xd1a7670223989538),
    ("CT/4096/lossless", 0xba0a0532185c8495),
    ("CT/4096/lossy16", 0x6d6d54040d4997b0),
    ("BW/4096/lossless", 0x2e5c7f50e252a491),
    ("BW/4096/lossy16", 0x4696f03fcac2f66c),
    ("BP/4096/lossless", 0x2d23751558cbc4e4),
    ("BP/4096/lossy16", 0xee975e56f88e63e6),
    ("IT/8192/lossless", 0x7a982a1acc00b111),
    ("IT/8192/lossy16", 0x5d8d82b9fe6e6eb0),
    ("ECG/8192/lossless", 0xc264533105cec175),
    ("ECG/8192/lossy16", 0xec5eebe390e94144),
    ("AP/8192/lossless", 0x8d5cc8b27c20f70f),
    ("AP/8192/lossy16", 0x851081687c31f0ec),
    ("GE/8192/lossless", 0x08ae287959499c90),
    ("GE/8192/lossy16", 0x6a7daae98a391ec5),
    ("LON/8192/lossless", 0x94d899346f9dadd7),
    ("LON/8192/lossy16", 0x34f587cbb0109d7c),
    ("CT/8192/lossless", 0x12b5c207e986f3a4),
    ("CT/8192/lossy16", 0x4e46cfaf111eb1a4),
    ("BW/8192/lossless", 0x30fec41406b0afd5),
    ("BW/8192/lossy16", 0xdbcd749386769222),
    ("BP/8192/lossless", 0x35786e0830b1193e),
    ("BP/8192/lossy16", 0x177982662ae3838e),
    ("zoo0/lossless", 0x0572c9c661a236cc),
    ("zoo0/lossy16", 0x51054e999794cb39),
    ("zoo0/all-kinds", 0x8becde99721860ce),
    ("zoo1/lossless", 0xc861197fcb8d0203),
    ("zoo1/lossy16", 0x757832e2e5ddfddb),
    ("zoo1/all-kinds", 0xdc68ff803dedf550),
    ("zoo2/lossless", 0x8646aca1da8b8ee2),
    ("zoo2/lossy16", 0x9e6fee3b5dd8aa2c),
    ("zoo2/all-kinds", 0x0818f093d5c57135),
    ("zoo3/lossless", 0xa9bf44e116d3cfc4),
    ("zoo3/lossy16", 0xe68e9021a20784bc),
    ("zoo3/all-kinds", 0xa9bf44e116d3cfc4),
    ("zoo4/lossless", 0x5d6876e3abe4a40a),
    ("zoo4/lossy16", 0xc6326697efa0e02d),
    ("zoo4/all-kinds", 0x5d6876e3abe4a40a),
];

fn digest_table() -> Vec<(String, u64)> {
    let builder = NeaTS::builder().threads(1);
    let all_kinds = NeaTS::builder().kinds(&Kind::ALL).threads(1);
    let mut out = Vec::new();
    let mut add = |name: String, ts: &TimeSeries, with_all_kinds: bool| {
        out.push((format!("{name}/lossless"), crc64(&builder.build(ts).to_bytes())));
        out.push((format!("{name}/lossy{LOSSY_EPS}"), crc64(&builder.build_lossy(ts, LOSSY_EPS).to_bytes())));
        if with_all_kinds {
            out.push((format!("{name}/all-kinds"), crc64(&all_kinds.build(ts).to_bytes())));
        }
    };
    for n in [4096, 8192] {
        for ds in DATASETS {
            add(format!("{}/{n}", ds.abbrev()), &ds.generate(n), false);
        }
    }
    for shape in 0..5 {
        let values = common::series(shape, 700 + 101 * shape, 1000 + shape as u64 * 7);
        add(format!("zoo{shape}"), &TimeSeries::from_values(values), true);
    }
    out
}

#[test]
fn archives_match_golden_digests() {
    let got = digest_table();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    if got != want {
        let table: String =
            got.iter().map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n")).collect();
        panic!("archive digests changed; recomputed table:\n{table}");
    }
}
