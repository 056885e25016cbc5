//! The traced run's per-layer microbenchmarks.
//!
//! Each one times calls into a module's public functions from outside, on
//! structures built from the run's own generated series, and wraps every
//! repetition in a span. A figure is the median over repetitions.

use crate::data::{Rng, Series};
use crate::stats::{self, percentile};
use crate::trace::Tracer;
use crate::workload::{build_pack, ingest_config, metric, prom_value, Metric, BATCH};
use neats_core::{ArchiveView, NeaTS};
use neats_ingest::wal::{encode_record, Wal};
use neats_ingest::{BackgroundConfig, FsyncPolicy, Ingestor, WalOp};
use neats_store::{Store, StoreOptions};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use succinct::{BitBuf, BitVector};
use timeseries::TimeSeries;

/// Points of one segment frame: the store's segment size.
const FRAME_POINTS: usize = neats_store::DEFAULT_SEGMENT_POINTS;
/// Points of one ingest head chunk: `IngestConfig`'s default.
const CHUNK_POINTS: usize = 4096;

#[derive(Clone, Debug)]
pub struct LayerSizes {
    /// Points per series of the store microbenchmarks' pack.
    pub pack_points: usize,
    /// Values per store range read.
    pub range_len: usize,
    /// Calls per repetition of a nanosecond-scale microbenchmark.
    pub iters: usize,
    /// Repetitions of every microbenchmark.
    pub reps: usize,
    /// `Ingestor::append` batches per series.
    pub ingest_batches: usize,
}

impl Default for LayerSizes {
    fn default() -> Self {
        Self {
            pack_points: 1 << 16,
            range_len: 60_000,
            iters: 200_000,
            reps: 5,
            ingest_batches: 48,
        }
    }
}

/// Request and response sizes of the workload's main request, for the
/// plain-socket echo that gives the kernel's loopback floor.
#[derive(Clone, Copy, Debug)]
pub struct Echo {
    pub request_bytes: usize,
    pub response_bytes: usize,
}

struct Bench<'t> {
    tracer: &'t mut Tracer,
    reps: usize,
    next_id: u64,
}

/// Span identifiers of the layer runs sit far above the clients' lanes.
const LAYER_ROOT: u64 = u64::MAX >> 1;

impl Bench<'_> {
    /// Median over repetitions of nanoseconds per operation; `f` runs one
    /// repetition and returns how many operations it made.
    fn per_op(&mut self, name: &'static str, mut f: impl FnMut() -> usize) -> f64 {
        let mut per = Vec::with_capacity(self.reps);
        for _ in 0..self.reps {
            let t0 = Instant::now();
            let ops = f();
            let t1 = Instant::now();
            self.next_id += 1;
            self.tracer
                .record(LAYER_ROOT + self.next_id, LAYER_ROOT, name, t0, t1);
            per.push(t1.duration_since(t0).as_nanos() as f64 / ops.max(1) as f64);
        }
        stats::median(&per)
    }
}

pub fn measure(
    data: &[Series],
    seed: u64,
    tmp: &Path,
    sz: &LayerSizes,
    echo: Echo,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let root_start = Instant::now();
    let mut b = Bench {
        tracer,
        reps: sz.reps,
        next_id: 0,
    };
    let mut rng = Rng::new(seed ^ 0x001A_7E55);
    let mut out = Vec::new();

    // --- codec: `NeaTSBuilder::build` on head-chunk and segment sizes.
    let builder = NeaTS::builder();
    let (mut pts, mut bytes, mut secs) = (0usize, 0usize, 0.0f64);
    let mut frames = Vec::new();
    for s in data {
        for (a, len) in [(0, FRAME_POINTS), (FRAME_POINTS, CHUNK_POINTS)] {
            let ts = TimeSeries::from_values(s.values[a..a + len].to_vec());
            let t0 = Instant::now();
            let c = builder.build(&ts);
            let t1 = Instant::now();
            b.next_id += 1;
            b.tracer
                .record(LAYER_ROOT + b.next_id, LAYER_ROOT, "codec.build", t0, t1);
            secs += t1.duration_since(t0).as_secs_f64();
            let frame = c.to_bytes();
            pts += len;
            bytes += frame.len();
            if len == FRAME_POINTS {
                frames.push(frame);
            }
        }
    }
    out.push(metric("codec.compress_pts_per_s", pts as f64 / secs, "1/s"));
    out.push(metric(
        "codec.bytes_per_point",
        bytes as f64 / pts as f64,
        "B",
    ));

    // --- view: open, locate, at, range over the segment frames.
    let opens = 16;
    let open_ns = b.per_op("view.open", || {
        for _ in 0..opens {
            for f in &frames {
                black_box(ArchiveView::open(f).expect("frame opens"));
            }
        }
        opens * frames.len()
    });
    out.push(metric("view.open_us", open_ns / 1e3, "us"));
    let views: Vec<ArchiveView<'_>> = frames
        .iter()
        .map(|f| ArchiveView::open(f).expect("frame opens"))
        .collect();
    let queries: Vec<(usize, usize)> = (0..sz.iters)
        .map(|_| (rng.below(views.len()), rng.below(FRAME_POINTS)))
        .collect();
    let lossless: Vec<_> = views
        .iter()
        .map(|v| v.as_lossless().expect("lossless frame"))
        .collect();
    out.push(metric(
        "view.locate_ns",
        b.per_op("view.locate", || {
            let acc = queries.iter().fold(0usize, |acc, &(v, k)| {
                acc ^ lossless[v].fragment_index_of(k)
            });
            black_box(acc);
            queries.len()
        }),
        "ns",
    ));
    out.push(metric(
        "view.at_ns",
        b.per_op("view.at", || {
            let acc = queries
                .iter()
                .fold(0i64, |acc, &(v, k)| acc ^ views[v].at(k));
            black_box(acc);
            queries.len()
        }),
        "ns",
    ));
    let mut buf = Vec::with_capacity(FRAME_POINTS);
    out.push(metric(
        "view.range_ns_per_value",
        b.per_op("view.range", || {
            for v in &views {
                buf.clear();
                v.range(0..v.len(), &mut buf);
                black_box(&buf);
            }
            views.len() * FRAME_POINTS
        }),
        "ns",
    ));

    // --- succinct: select over the fragment starts and get_bits over the
    // correction widths of each segment's fragment layout.
    let mut starts = Vec::new();
    let mut corrections = Vec::new();
    for (lv, s) in lossless.iter().zip(data) {
        let mut ones = vec![false; FRAME_POINTS];
        for i in 0..lv.fragment_count() {
            ones[lv.fragment(i).start] = true;
        }
        starts.push((BitVector::from_bools(&ones), lv.fragment_count()));
        let mut bits = BitBuf::new();
        let mut at = Vec::with_capacity(FRAME_POINTS);
        for k in 0..FRAME_POINTS {
            let w = lv.correction_width_of(lv.fragment_index_of(k));
            let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
            at.push((bits.len(), w));
            bits.push_bits(s.values[k] as u64 & mask, w);
        }
        corrections.push((bits, at));
    }
    let select_q: Vec<(usize, usize)> =
        queries.iter().map(|&(v, k)| (v, k % starts[v].1)).collect();
    out.push(metric(
        "succinct.select1_ns",
        b.per_op("succinct.select1", || {
            let acc = select_q.iter().fold(0usize, |acc, &(v, j)| {
                acc ^ starts[v].0.select1(j).unwrap_or(0)
            });
            black_box(acc);
            select_q.len()
        }),
        "ns",
    ));
    out.push(metric(
        "succinct.get_bits_ns",
        b.per_op("succinct.get_bits", || {
            let acc = queries.iter().fold(0u64, |acc, &(v, k)| {
                let (pos, w) = corrections[v].1[k];
                acc ^ corrections[v].0.get_bits(pos, w)
            });
            black_box(acc);
            queries.len()
        }),
        "ns",
    ));

    // --- store: build, warm point reads, uncached point reads, ranges.
    let prefix: Vec<Series> = data
        .iter()
        .map(|s| Series {
            name: s.name.clone(),
            stamps: s.stamps[..sz.pack_points].to_vec(),
            values: s.values[..sz.pack_points].to_vec(),
        })
        .collect();
    let t0 = Instant::now();
    let pack = build_pack(&prefix);
    let t1 = Instant::now();
    b.tracer
        .record(LAYER_ROOT + 1_000_000, LAYER_ROOT, "store.build", t0, t1);
    out.push(metric(
        "store.build_pts_per_s",
        (prefix.len() * sz.pack_points) as f64 / t1.duration_since(t0).as_secs_f64(),
        "1/s",
    ));
    let hot = Store::open(pack.clone()).expect("open layer pack");
    let cold = Store::open_with(
        pack,
        StoreOptions {
            cache_capacity: 0,
            ..StoreOptions::default()
        },
    )
    .expect("open layer pack");
    let points: Vec<(usize, usize)> = (0..sz.iters)
        .map(|_| (rng.below(prefix.len()), rng.below(sz.pack_points)))
        .collect();
    for &(s, k) in &points {
        black_box(hot.get(&prefix[s].name, k).expect("store get"));
    }
    out.push(metric(
        "store.get_hit_ns",
        b.per_op("store.get_hit", || {
            let acc = points.iter().fold(0i64, |acc, &(s, k)| {
                acc ^ hot.get(&prefix[s].name, k).unwrap_or(0)
            });
            black_box(acc);
            points.len()
        }),
        "ns",
    ));
    let misses = (sz.iters / 100).max(1);
    out.push(metric(
        "store.get_miss_us",
        b.per_op("store.get_miss", || {
            let acc = points[..misses].iter().fold(0i64, |acc, &(s, k)| {
                acc ^ cold.get(&prefix[s].name, k).unwrap_or(0)
            });
            black_box(acc);
            misses
        }) / 1e3,
        "us",
    ));
    let range_len = sz.range_len.min(sz.pack_points / 2);
    let ranges: Vec<(usize, usize)> = (0..16)
        .map(|_| {
            (
                rng.below(prefix.len()),
                rng.below(sz.pack_points - range_len),
            )
        })
        .collect();
    let mut values = Vec::with_capacity(range_len);
    out.push(metric(
        "store.range_ns_per_value",
        b.per_op("store.range", || {
            for &(s, a) in &ranges {
                values.clear();
                hot.range(&prefix[s].name, a..a + range_len, &mut values)
                    .expect("store range");
                black_box(&values);
            }
            ranges.len() * range_len
        }),
        "ns",
    ));
    drop((hot, cold));

    // --- net: a plain socket echo with the workload's message sizes.
    out.push(metric(
        "net.loopback_rtt_us",
        loopback_rtt_us(echo, b.tracer),
        "us",
    ));

    // --- WAL: record encoding, buffered append, fsync.
    let s0 = &data[0];
    let op = WalOp::Append {
        series: s0.name.clone(),
        stamps: s0.stamps[..BATCH].to_vec(),
        values: s0.values[..BATCH].to_vec(),
    };
    let records = 200;
    out.push(metric(
        "wal.encode_ns_per_pt",
        b.per_op("wal.encode", || {
            for _ in 0..records {
                black_box(encode_record(&op));
            }
            records * BATCH
        }),
        "ns",
    ));
    let wal_path = tmp.join("layer.wal");
    let mut wal = Wal::create(&wal_path, FsyncPolicy::Never).expect("create WAL");
    out.push(metric(
        "wal.append_us",
        b.per_op("wal.append", || {
            for _ in 0..records / 4 {
                wal.append(&op).expect("WAL append");
            }
            records / 4
        }) / 1e3,
        "us",
    ));
    out.push(metric(
        "wal.sync_us",
        b.per_op("wal.sync", || {
            wal.append(&op).expect("WAL append");
            wal.sync().expect("WAL sync");
            1
        }) / 1e3,
        "us",
    ));
    drop(wal);
    let _ = std::fs::remove_file(&wal_path);

    // --- ingest: direct appends (no HTTP) with the live workload's policy
    // and background worker, then a flush, drop and reopen.
    out.extend(direct_ingest(data, tmp, sz, b.tracer));
    b.tracer
        .record(LAYER_ROOT, 0, "layers", root_start, Instant::now());
    out
}

fn direct_ingest(data: &[Series], tmp: &Path, sz: &LayerSizes, tracer: &mut Tracer) -> Vec<Metric> {
    let dir = tmp.join("layer-ingest");
    let _ = std::fs::remove_dir_all(&dir);
    let ing = Arc::new(Ingestor::open(&dir, ingest_config()).expect("open layer ingest dir"));
    let registry = neats_core::Registry::new();
    ing.register_metrics(&registry);
    let background = ing.start_background(BackgroundConfig::default());
    let mut lat = Vec::with_capacity(sz.ingest_batches * data.len());
    let t_all = Instant::now();
    for i in 0..sz.ingest_batches {
        let r = i * BATCH..(i + 1) * BATCH;
        for s in data {
            let t0 = Instant::now();
            ing.append(&s.name, &s.stamps[r.clone()], &s.values[r.clone()])
                .expect("direct append");
            lat.push(t0.elapsed().as_nanos() as u64);
        }
    }
    background.stop();
    ing.flush().expect("flush layer ingest dir");
    tracer.record(
        LAYER_ROOT + 2_000_000,
        LAYER_ROOT,
        "ingest.append",
        t_all,
        Instant::now(),
    );
    let text = registry.render();
    drop(registry);
    drop(Arc::try_unwrap(ing).unwrap_or_else(|_| panic!("layer ingestor still shared")));
    let t0 = Instant::now();
    let reopened = Ingestor::open(&dir, ingest_config()).expect("reopen layer ingest dir");
    let reopen_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    lat.sort_unstable();
    let seals = prom_value(&text, "neats_ingest_seals_total").unwrap_or(f64::NAN);
    vec![
        metric(
            "ingest.append_p50_us",
            percentile(&lat, 0.50) as f64 / 1e3,
            "us",
        ),
        metric(
            "ingest.append_p99_us",
            percentile(&lat, 0.99) as f64 / 1e3,
            "us",
        ),
        metric("ingest.seal_ms", seal_ms(&text), "ms"),
        metric("ingest.seals", seals, "count"),
        metric(
            "ingest.fsyncs",
            prom_value(&text, "neats_ingest_wal_sync_ns_count").unwrap_or(f64::NAN),
            "count",
        ),
        metric("ingest.reopen_ms", reopen_ms, "ms"),
    ]
}

/// Mean seal duration from the `neats_ingest_seal_ns` histogram.
pub fn seal_ms(prometheus: &str) -> f64 {
    let sum = prom_value(prometheus, "neats_ingest_seal_ns_sum").unwrap_or(f64::NAN);
    let count = prom_value(prometheus, "neats_ingest_seal_ns_count").unwrap_or(f64::NAN);
    sum / count / 1e6
}

/// Median round trip of a plain `TcpStream` echo: the client sends
/// `request_bytes`, the server answers `response_bytes`.
fn loopback_rtt_us(echo: Echo, tracer: &mut Tracer) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo listener");
    let addr = listener.local_addr().expect("echo address");
    let (req_len, resp_len) = (echo.request_bytes.max(1), echo.response_bytes.max(1));
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept echo client");
        s.set_nodelay(true).expect("nodelay");
        let mut req = vec![0u8; req_len];
        let resp = vec![b'7'; resp_len];
        while s.read_exact(&mut req).is_ok() {
            if s.write_all(&resp).is_err() {
                break;
            }
        }
    });
    let mut c = TcpStream::connect(addr).expect("connect echo");
    c.set_nodelay(true).expect("nodelay");
    let req = vec![b'g'; req_len];
    let mut resp = vec![0u8; resp_len];
    let mut rtt = Vec::new();
    let t_all = Instant::now();
    while rtt.len() < 20_000 && t_all.elapsed() < Duration::from_millis(500) {
        let t0 = Instant::now();
        c.write_all(&req).expect("echo send");
        c.read_exact(&mut resp).expect("echo receive");
        rtt.push(t0.elapsed().as_nanos() as u64);
    }
    tracer.record(
        LAYER_ROOT + 3_000_000,
        LAYER_ROOT,
        "net.echo",
        t_all,
        Instant::now(),
    );
    drop(c);
    server.join().expect("echo server");
    rtt.sort_unstable();
    percentile(&rtt, 0.50) as f64 / 1e3
}
