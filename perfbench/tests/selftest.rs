//! The benchmark's own tests: its correctness gate catches a wrong answer
//! and a lost write, its inputs are a pure function of the seed, and its
//! output names exactly the metrics `BENCHMARK.json` declares.

use perfbench::data;
use perfbench::layers::LayerSizes;
use perfbench::workload::{self, build_pack, Fault, Report, Settings, Sizes, Workload};
use std::path::PathBuf;
use std::time::Duration;

fn small() -> Sizes {
    Sizes {
        points: 1 << 15,
        range_len: 4096,
        setups: 2,
        preload: 1024,
        warmup: Duration::from_millis(100),
        layers: LayerSizes {
            pack_points: 1 << 14,
            range_len: 4096,
            iters: 2000,
            reps: 2,
            ingest_batches: 4,
        },
    }
}

fn run(w: Workload, seconds: f64, trace: bool, fault: Option<Fault>) -> Report {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "selftest-{}-{}-{:?}",
        w.name(),
        trace,
        fault
    ));
    std::fs::create_dir_all(&tmp).unwrap();
    let st = Settings {
        workload: w,
        seed: 7,
        seconds,
        trace,
        sizes: small(),
        fault,
        tmp: tmp.clone(),
    };
    let report = workload::run(&st);
    let _ = std::fs::remove_dir_all(&tmp);
    report
}

/// The metric names `BENCHMARK.json` declares: (end-to-end, per-layer).
fn declared() -> (Vec<String>, Vec<String>) {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let names = |part: &str| -> Vec<String> {
        part.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).unwrap().to_string())
            .collect()
    };
    let e2e = text.find("\"end_to_end\"").unwrap();
    let layers = text.find("\"per_layer\"").unwrap();
    assert!(
        e2e < layers,
        "BENCHMARK.json lists end_to_end before per_layer"
    );
    (names(&text[e2e..layers]), names(&text[layers..]))
}

fn plan(seed: u64, lane: u64) -> Vec<(usize, usize)> {
    data::Plan::new(seed, lane, 8, 20_000, 1)
        .take(1000)
        .collect()
}

fn names(r: &Report) -> Vec<String> {
    let mut v: Vec<String> = r.metrics.iter().map(|m| m.name.to_string()).collect();
    v.sort();
    v
}

#[test]
fn clean_runs_pass_the_gate_and_report_every_end_to_end_metric() {
    let (mut e2e, _) = declared();
    e2e.sort();
    for w in Workload::ALL {
        let r = run(w, 1.0, false, None);
        assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.notes);
        assert!(r.attempted > 0);
        assert_eq!(names(&r), e2e, "{}", w.name());
        for m in &r.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let (_, mut layers) = declared();
    layers.sort();
    for w in Workload::ALL {
        let r = run(w, 1.0, true, None);
        assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.notes);
        assert_eq!(names(&r), layers, "{}", w.name());
        for m in &r.metrics {
            assert!(
                m.value.is_finite(),
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        assert!(!r.tracer.is_empty(), "a traced run keeps its spans");
        assert!(r.scrapes.iter().any(|(what, _)| what == "/metrics"));
    }
}

#[test]
fn a_wrong_answer_gives_a_positive_error_rate() {
    let r = run(Workload::PointHot, 0.5, false, Some(Fault::WrongAnswer));
    assert!(
        r.failed >= 1 && r.error_rate() > 0.0,
        "failed {} of {}",
        r.failed,
        r.attempted
    );
}

#[test]
fn a_dropped_write_gives_a_positive_error_rate() {
    let r = run(Workload::IngestLive, 0.5, false, Some(Fault::DropWrite));
    assert!(
        r.failed >= 1 && r.error_rate() > 0.0,
        "failed {} of {}",
        r.failed,
        r.attempted
    );
}

#[test]
fn the_seed_fixes_series_plans_and_pack_bytes() {
    let a = data::generate(11, 20_000);
    let b = data::generate(11, 20_000);
    assert!(a
        .iter()
        .zip(&b)
        .all(|(x, y)| x.values == y.values && x.stamps == y.stamps));
    assert_eq!(build_pack(&a), build_pack(&b), "same seed, same pack bytes");
    for lane in 0..2 {
        assert_eq!(plan(11, lane), plan(11, lane));
    }

    let c = data::generate(12, 20_000);
    assert!(
        a.iter().zip(&c).any(|(x, y)| x.values != y.values),
        "another seed, other series"
    );
    assert_ne!(plan(11, 0), plan(12, 0));
    assert_ne!(plan(11, 0), plan(11, 1), "clients get their own plans");
}

#[test]
fn the_live_writer_never_runs_out_of_points() {
    let s = &data::generate(3, 1000)[0];
    let n = s.values.len();
    assert_eq!(s.cycled(5), (s.stamps[5], s.values[5]));
    let (past, wrapped) = (s.cycled(n - 1), s.cycled(n + 5));
    assert_eq!(wrapped.1, s.values[5], "values repeat");
    assert!(wrapped.0 > past.0, "stamps keep rising");
}
