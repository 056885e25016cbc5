//! `perfbench --workload <point-hot|scan-cold|ingest-live|all> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. The full record (host fingerprint, settings, notes and,
//! traced, the server scrapes and the spans) goes under `.bench_out/`.

use perfbench::stats::{fingerprint, json_num, json_obj, json_str};
use perfbench::workload::{self, Report, Settings, Sizes, Workload, FSYNC};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("seconds must be positive and finite".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <point-hot|scan-cold|ingest-live|all> --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(".bench_out");
    let tmp = out.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    let host = fingerprint();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut fields = Vec::new();
    for &w in &args.workloads {
        let st = Settings {
            workload: w,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            sizes: Sizes::of(w),
            fault: None,
            tmp: tmp.clone(),
        };
        let report = workload::run(&st);
        print_report(&st, &host, &report);
        if let Err(e) = save(&out, &st, &host, &report) {
            eprintln!("perfbench: cannot write the run record: {e}");
        }
        attempted += report.attempted;
        failed += report.failed;
        for m in &report.metrics {
            let key = if args.workloads.len() == 1 {
                m.name.to_string()
            } else {
                format!("{}.{}", w.name(), m.name)
            };
            fields.push((
                key,
                json_obj([("value", json_num(m.value)), ("unit", json_str(m.unit))]),
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    let metrics = json_obj(fields.iter().map(|(k, v)| (k.as_str(), v.clone())));
    println!(
        "{}",
        json_obj([
            ("correct", (failed == 0).to_string()),
            ("attempted", attempted.to_string()),
            ("failed", failed.to_string()),
            ("metrics", metrics),
        ])
    );
    ExitCode::SUCCESS
}

fn settings_fields(st: &Settings, host: &[(&'static str, String)]) -> Vec<(&'static str, String)> {
    let mut f: Vec<(&'static str, String)> = host.iter().map(|(k, v)| (*k, json_str(v))).collect();
    f.push(("workload", json_str(st.workload.name())));
    f.push(("seed", st.seed.to_string()));
    f.push(("seconds", json_num(st.seconds)));
    f.push(("trace", (st.trace as u8).to_string()));
    f.push(("fsync", json_str(&format!("{FSYNC:?}"))));
    f.push((
        "server_threads",
        workload::serve_config().threads.to_string(),
    ));
    f
}

fn print_report(st: &Settings, host: &[(&'static str, String)], r: &Report) {
    println!(
        "== {} seed={} trace={}",
        st.workload.name(),
        st.seed,
        st.trace as u8
    );
    println!("host {}", json_obj(settings_fields(st, host)));
    for n in &r.notes {
        println!("# {n}");
    }
    for m in &r.metrics {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<32} {:>16.6} ratio ({} failed of {} attempted)",
        "error_rate",
        r.error_rate(),
        r.failed,
        r.attempted
    );
}

/// Writes the run record and, for a traced run, its spans.
fn save(
    out: &Path,
    st: &Settings,
    host: &[(&'static str, String)],
    r: &Report,
) -> std::io::Result<()> {
    let stem = format!(
        "{}-seed{}-trace{}",
        st.workload.name(),
        st.seed,
        st.trace as u8
    );
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            json_obj([
                ("name", json_str(m.name)),
                ("value", json_num(m.value)),
                ("unit", json_str(m.unit)),
            ])
        })
        .collect::<Vec<_>>();
    let scrapes = r
        .scrapes
        .iter()
        .map(|(what, body)| json_obj([("what", json_str(what)), ("body", json_str(body))]))
        .collect::<Vec<_>>();
    let notes = r.notes.iter().map(|n| json_str(n)).collect::<Vec<_>>();
    let record = json_obj([
        ("settings", json_obj(settings_fields(st, host))),
        ("attempted", r.attempted.to_string()),
        ("failed", r.failed.to_string()),
        ("error_rate", json_num(r.error_rate())),
        ("metrics", format!("[{}]", metrics.join(", "))),
        ("notes", format!("[{}]", notes.join(", "))),
        ("scrapes", format!("[{}]", scrapes.join(", "))),
        ("spans", r.tracer.len().to_string()),
        ("spans_dropped", r.tracer.dropped.to_string()),
    ]);
    std::fs::write(out.join(format!("{stem}.json")), record + "\n")?;
    if st.trace {
        r.tracer
            .write_jsonl(&out.join(format!("{stem}.spans.jsonl")))?;
    }
    Ok(())
}
