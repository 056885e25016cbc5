//! The two-stage parallel partitioner's hard guarantee: for every input,
//! every kind pool, and every thread count, it is *bit-identical* to the
//! reference one-pass sweep of Algorithm 1 — same `cost_bits`, same fragment
//! boundaries/origins/params, same ε choices — and therefore every archive
//! byte is independent of the thread count.

use neats_core::partition::{partition, partition_reference, positivity_shift, PartitionConfig};
use neats_core::{Kind, NeaTS, Partition};
use timeseries::TimeSeries;

mod common;
use common::series;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Asserts every field of both partitions matches exactly (f64 params
/// compared bit-for-bit via `Fragment: PartialEq`).
fn assert_identical(a: &Partition, b: &Partition, what: &str) {
    assert_eq!(a.cost_bits, b.cost_bits, "{what}: cost_bits");
    assert_eq!(a.epsilons, b.epsilons, "{what}: epsilon choices");
    assert_eq!(a.fragments.len(), b.fragments.len(), "{what}: fragment count");
    for (i, (fa, fb)) in a.fragments.iter().zip(&b.fragments).enumerate() {
        assert_eq!(fa, fb, "{what}: fragment {i}");
    }
}

#[test]
fn two_stage_equals_reference_across_shapes_kinds_and_threads() {
    let kind_pools: [&[Kind]; 3] = [&[Kind::Linear], &Kind::NEATS_DEFAULT, &Kind::ALL];
    let eps_sets: [&[u64]; 2] = [&[0, 2, 8], &[0, 2, 8, 32, 128]];
    for shape in 0..5 {
        for (pi, kinds) in kind_pools.iter().enumerate() {
            let epsilons = eps_sets[shape % 2];
            let values = series(shape, 700 + 101 * shape, 1000 + shape as u64 * 7 + pi as u64);
            let max_eps = epsilons.iter().copied().max().unwrap();
            let shift = positivity_shift(&values, max_eps);
            let base = PartitionConfig::lossless(kinds, epsilons, shift);
            let reference = partition_reference(&values, &base);
            for threads in THREAD_COUNTS {
                let cfg = base.clone().with_threads(threads);
                let two_stage = partition(&values, &cfg);
                assert_identical(
                    &two_stage,
                    &reference,
                    &format!("shape={shape} pool={pi} threads={threads}"),
                );
            }
        }
    }
}

#[test]
fn two_stage_equals_reference_lossy_config() {
    for shape in 0..5 {
        let values = series(shape, 600, 77 + shape as u64);
        let shift = positivity_shift(&values, 16);
        let base = PartitionConfig::lossy(&Kind::NEATS_DEFAULT, 16, shift);
        let reference = partition_reference(&values, &base);
        for threads in THREAD_COUNTS {
            let two_stage = partition(&values, &base.clone().with_threads(threads));
            assert_identical(&two_stage, &reference, &format!("lossy shape={shape} threads={threads}"));
        }
    }
}

#[test]
fn randomized_property_many_seeds() {
    // Narrow configs, many seeds: a cheap property sweep over the space the
    // two big tests cannot cover.
    for seed in 0..30u64 {
        let values = series(seed as usize, 200 + (seed as usize % 7) * 50, seed);
        let shift = positivity_shift(&values, 8);
        let cfg = PartitionConfig::lossless(&Kind::NEATS_DEFAULT, &[0, 2, 8], shift);
        let reference = partition_reference(&values, &cfg);
        let two_stage = partition(&values, &cfg.clone().with_threads(3));
        assert_identical(&two_stage, &reference, &format!("seed={seed}"));
    }
}

#[test]
fn empty_and_tiny_inputs_agree() {
    let cfg = PartitionConfig::lossless(&Kind::NEATS_DEFAULT, &[0, 2], 10);
    for values in [vec![], vec![42i64], vec![1, 2], vec![-5, -5, -5]] {
        let shift = positivity_shift(&values, 2);
        let cfg = PartitionConfig { shift, ..cfg.clone() };
        let reference = partition_reference(&values, &cfg);
        for threads in THREAD_COUNTS {
            let two_stage = partition(&values, &cfg.clone().with_threads(threads));
            assert_identical(&two_stage, &reference, &format!("tiny {values:?} threads={threads}"));
        }
    }
}

#[test]
fn archive_bytes_are_thread_count_invariant() {
    // End-to-end determinism: the serialised archive must be byte-identical
    // regardless of how many workers partitioned it.
    for shape in 0..3 {
        let values = series(shape, 3000, 9 + shape as u64);
        let ts = TimeSeries::from_values(values);
        let archives: Vec<Vec<u8>> = THREAD_COUNTS
            .iter()
            .map(|&t| NeaTS::builder().threads(t).build(&ts).to_bytes())
            .collect();
        for (i, bytes) in archives.iter().enumerate().skip(1) {
            assert_eq!(
                bytes, &archives[0],
                "shape={shape}: archive differs between {} and {} threads",
                THREAD_COUNTS[0], THREAD_COUNTS[i]
            );
        }
    }
}

#[test]
fn sneats_model_selection_is_thread_count_invariant() {
    // Model selection partitions a sample internally; the selected pair set
    // (and thus the archive) must not depend on the thread count either.
    let values = series(2, 4000, 5);
    let ts = TimeSeries::from_values(values);
    let archives: Vec<Vec<u8>> = THREAD_COUNTS
        .iter()
        .map(|&t| NeaTS::sneats().threads(t).build(&ts).to_bytes())
        .collect();
    assert!(archives.windows(2).all(|w| w[0] == w[1]), "sneats archives differ across threads");
}
