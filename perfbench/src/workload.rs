//! The three workloads: set-up, closed-loop clients, answer checks, teardown.
//!
//! Every workload drives the real stack (`Server` → `Store` / `Ingestor` →
//! `ArchiveView` → `succinct`) over loopback from this one process. Every
//! answer is checked against the generated series, which never pass
//! through the code under test, and every acknowledged write is read back
//! after a flush, drop and reopen of the `Ingestor`.

use crate::client::Conn;
use crate::data::{self, Plan, Series};
use crate::layers::{self, LayerSizes};
use crate::stats::{self, HeapPeak, Latency};
use crate::trace::Tracer;
use neats_ingest::{BackgroundConfig, BackgroundHandle, FsyncPolicy, IngestConfig, Ingestor};
use neats_serve::{ServeConfig, Server, ServerHandle, Source};
use neats_store::{CacheStats, Store, StoreConfig, StoreWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointHot,
    ScanCold,
    IngestLive,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PointHot, Workload::ScanCold, Workload::IngestLive];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointHot => "point-hot",
            Workload::ScanCold => "scan-cold",
            Workload::IngestLive => "ingest-live",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The request kind the workload's headline metrics describe.
    pub fn primary(self) -> Kind {
        match self {
            Workload::PointHot => Kind::Point,
            Workload::ScanCold => Kind::Range,
            Workload::IngestLive => Kind::Write,
        }
    }
}

/// The sizes of one workload. [`Sizes::of`] is the benchmark; tests shrink
/// it.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Points per series (eight series).
    pub points: usize,
    /// Values per range request (`scan-cold`).
    pub range_len: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Points per series in the live directory's WAL before set-up
    /// (`ingest-live`), so that set-up includes a replay.
    pub preload: usize,
    /// Closed-loop time before measuring starts.
    pub warmup: Duration,
    /// The traced run's layer microbenchmarks.
    pub layers: LayerSizes,
}

impl Sizes {
    pub fn of(w: Workload) -> Self {
        let (points, setups) = match w {
            // 8 × 131 072 points = 128 segments: half the 256-entry cache.
            Workload::PointHot => (1 << 17, 3),
            // 8 × 524 288 points = 512 segments: twice the cache.
            Workload::ScanCold => (1 << 19, 3),
            // The writer cycles the values with rising stamps, so it
            // never runs dry however fast ingestion gets.
            Workload::IngestLive => (1 << 17, 3),
        };
        Self {
            points,
            range_len: 60_000,
            setups,
            preload: 1 << 14,
            warmup: Duration::from_millis(1000),
            layers: LayerSizes::default(),
        }
    }
}

/// Points per `POST /write` batch, direct append and WAL record.
pub const BATCH: usize = 512;

/// The WAL policy of every ingesting path (see the workload note).
pub const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(64);

pub fn ingest_config() -> IngestConfig {
    IngestConfig {
        fsync: FSYNC,
        ..IngestConfig::default()
    }
}

/// One worker shard, everything else at the server's defaults.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    }
}

/// A deliberate defect, for the benchmark's own tests of its correctness
/// gate. The command line never sets one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The check expects a different value for the first point answer.
    WrongAnswer,
    /// The ledger records one acknowledged point that was never written.
    DropWrite,
}

pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    pub fault: Option<Fault>,
    /// Scratch directory for live ingestion and WAL files.
    pub tmp: PathBuf,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run measured and checked.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable context: sample counts, seal counts, misattributions.
    pub notes: Vec<String>,
    /// Raw server scrapes (traced run only): `(what, body)`.
    pub scrapes: Vec<(String, String)>,
    pub tracer: Tracer,
}

impl Report {
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

// ---------------------------------------------------------------------------
// Clients

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Point = 0,
    Range = 1,
    Write = 2,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Point => "http.point",
            Kind::Range => "http.range",
            Kind::Write => "http.write",
        }
    }
}

/// One request a client made.
struct Done {
    kind: Kind,
    start: Instant,
    end: Instant,
    values: usize,
    req_bytes: usize,
    wire_bytes: usize,
    ok: bool,
    /// The connection broke; reconnect before the next request.
    broken: bool,
}

trait Client: Send {
    /// Issues one request and checks its answer; `None` when there was
    /// nothing to do (no acknowledged point to read yet).
    fn step(&mut self, conn: &mut Conn) -> Option<Done>;
}

fn timed<T>(f: impl FnOnce() -> T) -> (Instant, Instant, T) {
    let start = Instant::now();
    let out = f();
    (start, Instant::now(), out)
}

/// Whether a response body is exactly `want`, one value per line.
fn body_is(body: &[u8], want: impl ExactSizeIterator<Item = i64>) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    let mut lines = text.lines();
    let n = want.len();
    want.zip(lines.by_ref())
        .filter(|&(v, l)| l.parse::<i64>().ok() == Some(v))
        .count()
        == n
        && lines.next().is_none()
}

struct PointClient {
    plan: Plan,
    first: bool,
    data: Arc<Vec<Series>>,
    fault: Option<Fault>,
}

impl Client for PointClient {
    fn step(&mut self, conn: &mut Conn) -> Option<Done> {
        let (s, k) = self.plan.next()?;
        let series = &self.data[s];
        let target = format!("/q/{}?idx={k}", series.name);
        let (start, end, reply) = timed(|| conn.get(&target));
        let mut expect = series.values[k];
        if self.fault == Some(Fault::WrongAnswer) && self.first {
            expect = expect.wrapping_add(1);
        }
        self.first = false;
        let ok = matches!(&reply, Ok(r) if r.status == 200
            && body_is(&r.body, std::iter::once(expect)));
        Some(Done {
            kind: Kind::Point,
            start,
            end,
            values: 1,
            req_bytes: reply.as_ref().map_or(0, |r| r.sent_bytes),
            wire_bytes: reply.as_ref().map_or(0, |r| r.wire_bytes),
            ok,
            broken: reply.is_err(),
        })
    }
}

struct RangeClient {
    plan: Plan,
    len: usize,
    data: Arc<Vec<Series>>,
}

impl Client for RangeClient {
    fn step(&mut self, conn: &mut Conn) -> Option<Done> {
        let (s, a) = self.plan.next()?;
        let series = &self.data[s];
        let target = format!("/q/{}?idx={a}..{}", series.name, a + self.len);
        let (start, end, reply) = timed(|| conn.get(&target));
        let want = series.values[a..a + self.len].iter().copied();
        let ok = matches!(&reply, Ok(r) if r.status == 200 && body_is(&r.body, want));
        Some(Done {
            kind: Kind::Range,
            start,
            end,
            values: self.len,
            req_bytes: reply.as_ref().map_or(0, |r| r.sent_bytes),
            wire_bytes: reply.as_ref().map_or(0, |r| r.wire_bytes),
            ok,
            broken: reply.is_err(),
        })
    }
}

/// Acknowledged points per series: the durability ledger, and the bound
/// on what the live reader may ask for. The writer stores a count with
/// `Release` once the server has acknowledged it, and the reader loads it
/// with `Acquire`.
type Acked = Arc<Vec<AtomicUsize>>;

struct WriterClient {
    data: Arc<Vec<Series>>,
    next: usize,
    acked: Acked,
    body: Vec<u8>,
}

impl Client for WriterClient {
    fn step(&mut self, conn: &mut Conn) -> Option<Done> {
        use std::io::Write as _;
        let s = self.next;
        self.next = (s + 1) % self.data.len();
        let series = &self.data[s];
        let from = self.acked[s].load(Ordering::Acquire);
        let to = from + BATCH;
        self.body.clear();
        for k in from..to {
            let (stamp, value) = series.cycled(k);
            let _ = writeln!(self.body, "{} {stamp} {value}", series.name);
        }
        let (start, end, reply) = timed(|| conn.post("/write", &self.body));
        let expect = format!("#0 ok {BATCH}\n#done 1\n");
        let ok = matches!(&reply, Ok(r) if r.status == 200 && r.body == expect.as_bytes());
        if ok {
            self.acked[s].store(to, Ordering::Release);
        }
        Some(Done {
            kind: Kind::Write,
            start,
            end,
            values: BATCH,
            req_bytes: reply.as_ref().map_or(0, |r| r.sent_bytes),
            wire_bytes: reply.as_ref().map_or(0, |r| r.wire_bytes),
            ok,
            broken: reply.is_err(),
        })
    }
}

struct ReaderClient {
    plan: Plan,
    data: Arc<Vec<Series>>,
    acked: Acked,
}

impl Client for ReaderClient {
    fn step(&mut self, conn: &mut Conn) -> Option<Done> {
        let (s, raw) = self.plan.next()?;
        let visible = self.acked[s].load(Ordering::Acquire);
        if visible == 0 {
            std::thread::yield_now();
            return None;
        }
        let k = raw % visible;
        let series = &self.data[s];
        let target = format!("/q/{}?idx={k}", series.name);
        let (start, end, reply) = timed(|| conn.get(&target));
        let ok = matches!(&reply, Ok(r) if r.status == 200
            && body_is(&r.body, std::iter::once(series.cycled(k).1)));
        Some(Done {
            kind: Kind::Point,
            start,
            end,
            values: 1,
            req_bytes: reply.as_ref().map_or(0, |r| r.sent_bytes),
            wire_bytes: reply.as_ref().map_or(0, |r| r.wire_bytes),
            ok,
            broken: reply.is_err(),
        })
    }
}

// ---------------------------------------------------------------------------
// The closed loop

/// The clients' phase: warm-up, stop, or measuring window `w` (`w + 1`).
const WARMUP: u32 = 0;
const STOP: u32 = u32::MAX;

/// A latency sample packs the request kind (bits 62–63), the measuring
/// window (bits 40–61) and the nanoseconds (bits 0–39).
const NS_BITS: u32 = 40;
const NS_MASK: u64 = (1 << NS_BITS) - 1;
const KIND_SHIFT: u32 = 62;
const WINDOW_MASK: u64 = (1 << (KIND_SHIFT - NS_BITS)) - 1;

fn sample_kind(x: u64) -> usize {
    (x >> KIND_SHIFT) as usize
}

fn sample_window(x: u64) -> usize {
    ((x >> NS_BITS) & WINDOW_MASK) as usize
}

/// A client's latency samples, in a buffer allocated before the heap
/// baseline is read and never grown, so that it is not counted as the
/// program's memory.
struct Samples {
    buf: Vec<u64>,
    dropped: u64,
}

impl Samples {
    /// Room for 100 000 requests a second over the whole run.
    fn new(seconds: f64) -> Self {
        let cap = ((seconds * 1e5) as usize).clamp(1 << 16, 1 << 23);
        Self {
            buf: Vec::with_capacity(cap),
            dropped: 0,
        }
    }

    fn push(&mut self, x: u64) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(x);
        } else {
            self.dropped += 1;
        }
    }

    fn of(&self, kind: usize) -> impl Iterator<Item = u64> + '_ {
        self.buf
            .iter()
            .copied()
            .filter(move |&x| sample_kind(x) == kind)
    }
}

/// Per-client record of one run; counters are indexed by request kind.
struct Log {
    lat: Samples,
    values: [u64; 3],
    req_bytes: [u64; 3],
    wire_bytes: [u64; 3],
    attempted: u64,
    failed: u64,
    tracer: Tracer,
}

impl Log {
    fn new(seconds: f64, tracer: Tracer) -> Self {
        Self {
            lat: Samples::new(seconds),
            values: [0; 3],
            req_bytes: [0; 3],
            wire_bytes: [0; 3],
            attempted: 0,
            failed: 0,
            tracer,
        }
    }
}

fn client_loop(
    addr: std::net::SocketAddr,
    mut client: Box<dyn Client>,
    phase: &AtomicU32,
    traced: &[bool],
    lane: u64,
    mut log: Log,
) -> Log {
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            log.attempted = 1;
            log.failed = 1;
            return log;
        }
    };
    let mut seq = 0u64;
    loop {
        let p = phase.load(Ordering::Relaxed);
        if p == STOP {
            return log;
        }
        let Some(d) = client.step(&mut conn) else {
            continue;
        };
        seq += 1;
        log.attempted += 1;
        if !d.ok {
            log.failed += 1;
        }
        if d.broken {
            match Conn::connect(addr) {
                Ok(c) => conn = c,
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        if p == WARMUP || !d.ok {
            continue;
        }
        let (k, window) = (d.kind as usize, (p - 1) as u64);
        let ns = (d.end.duration_since(d.start).as_nanos() as u64).min(NS_MASK);
        log.lat
            .push((k as u64) << KIND_SHIFT | window << NS_BITS | ns);
        log.values[k] += d.values as u64;
        log.req_bytes[k] += d.req_bytes as u64;
        log.wire_bytes[k] += d.wire_bytes as u64;
        if traced[window as usize] {
            log.tracer
                .record(lane << 40 | seq, 0, d.kind.name(), d.start, d.end);
        }
    }
}

/// The merged record of a closed-loop run.
struct Loop {
    logs: Vec<Log>,
    /// Per measuring window: whether it was traced, its length in seconds,
    /// and the CPU ticks the hypervisor stole from this guest during it.
    traced: Vec<bool>,
    secs: Vec<f64>,
    steal: Vec<u64>,
    /// Cache hits and misses while measuring.
    cache: CacheTally,
}

/// Cache counters summed over polls. A counter that went backwards belongs
/// to a new store generation (a seal swapped it in) and restarts from zero.
#[derive(Default)]
struct CacheTally {
    hits: u64,
    misses: u64,
    last: Option<(u64, u64)>,
}

impl CacheTally {
    fn poll(&mut self, now: CacheStats) {
        let (h, m) = (now.hits, now.misses);
        match self.last {
            Some((lh, lm)) if h >= lh && m >= lm => {
                self.hits += h - lh;
                self.misses += m - lm;
            }
            Some(_) => {
                self.hits += h;
                self.misses += m;
            }
            None => {}
        }
        self.last = Some((h, m));
    }
}

impl Loop {
    /// The untraced windows the end-to-end figures come from: those with no
    /// more hypervisor steal than the median untraced window. On a quiet
    /// host (or one that reports no steal) that is every untraced window.
    fn quiet(&self) -> Vec<bool> {
        let mut steal: Vec<u64> = (0..self.traced.len())
            .filter(|&w| !self.traced[w])
            .map(|w| self.steal[w])
            .collect();
        steal.sort_unstable();
        let cut = steal
            .get(steal.len().saturating_sub(1) / 2)
            .copied()
            .unwrap_or(0);
        (0..self.traced.len())
            .map(|w| !self.traced[w] && self.steal[w] <= cut)
            .collect()
    }

    /// Latencies in nanoseconds of `kinds` requests in the windows `keep`.
    fn samples(&self, kinds: &[Kind], keep: &[bool]) -> Vec<u64> {
        let mut out = Vec::new();
        for log in &self.logs {
            for &k in kinds {
                out.extend(
                    log.lat
                        .of(k as usize)
                        .filter(|&x| keep[sample_window(x)])
                        .map(|x| x & NS_MASK),
                );
            }
        }
        out
    }

    fn requests(&self, kind: Kind) -> usize {
        self.logs
            .iter()
            .map(|l| l.lat.of(kind as usize).count())
            .sum()
    }

    fn values_per_request(&self, kind: Kind) -> f64 {
        let values: u64 = self.logs.iter().map(|l| l.values[kind as usize]).sum();
        values as f64 / self.requests(kind).max(1) as f64
    }

    /// Values moved per second by `kind` requests over the windows `keep`
    /// together: pooled, so that the seal stalls of a live run weigh the
    /// same wherever the window edges fall.
    fn rate(&self, kind: Kind, keep: &[bool]) -> f64 {
        let requests = self.samples(&[kind], keep).len();
        let secs: f64 = (0..keep.len())
            .filter(|&w| keep[w])
            .map(|w| self.secs[w])
            .sum();
        requests as f64 * self.values_per_request(kind) / secs
    }

    /// Mean request and response bytes of one `kind` request.
    fn mean_bytes(&self, kind: Kind) -> (usize, usize) {
        let n = self.requests(kind).max(1) as u64;
        let req: u64 = self.logs.iter().map(|l| l.req_bytes[kind as usize]).sum();
        let wire: u64 = self.logs.iter().map(|l| l.wire_bytes[kind as usize]).sum();
        ((req / n) as usize, (wire / n) as usize)
    }
}

/// Half a second per measuring window. A traced run alternates untraced
/// and traced windows, so both see the same warm state and the same
/// background work.
const WINDOW: Duration = Duration::from_millis(500);
/// How often the heap (and, traced, the cache counters) are read.
const POLL: Duration = Duration::from_millis(10);

/// Runs `clients`, each recording into its own of `logs`, in a closed
/// loop: warm-up, then `seconds` measured in windows, all untraced or
/// (traced run) alternating untraced and traced, with `scrape` called at
/// the end of every traced window and the heap sampled throughout.
fn drive(
    addr: std::net::SocketAddr,
    clients: Vec<Box<dyn Client>>,
    logs: Vec<Log>,
    st: &Settings,
    cache: &(dyn Fn() -> CacheStats + Sync),
    heap: &mut HeapPeak,
    scrape: &mut dyn FnMut(),
) -> Loop {
    let phase = AtomicU32::new(WARMUP);
    let windows =
        (Duration::from_secs_f64(st.seconds).as_nanos()).div_ceil(WINDOW.as_nanos()) as usize;
    let traced: Vec<bool> = (0..windows).map(|w| st.trace && w % 2 == 1).collect();
    let (logs, secs, steal, cache) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(logs)
            .enumerate()
            .map(|(lane, (c, log))| {
                let (phase, traced) = (&phase, &traced);
                s.spawn(move || {
                    stats::pin(stats::Side::Client);
                    client_loop(addr, c, phase, traced, lane as u64 + 1, log)
                })
            })
            .collect();
        std::thread::sleep(st.sizes.warmup);
        let mut tally = CacheTally::default();
        tally.poll(cache());
        let t_end = Instant::now() + Duration::from_secs_f64(st.seconds);
        let (mut secs, mut steal) = (Vec::new(), Vec::new());
        let mut last_steal = stats::steal_ticks();
        for (w, &traced_w) in traced.iter().enumerate() {
            let start = Instant::now();
            phase.store(w as u32 + 1, Ordering::Relaxed);
            let end = (start + WINDOW).min(t_end);
            // A traced run polls the cache often enough to see each store
            // generation a seal replaces.
            while Instant::now() < end {
                std::thread::sleep(POLL.min(end.saturating_duration_since(Instant::now())));
                heap.sample();
                if st.trace {
                    tally.poll(cache());
                }
            }
            if traced_w {
                scrape();
            }
            let now_steal = stats::steal_ticks();
            steal.push(now_steal.saturating_sub(last_steal));
            last_steal = now_steal;
            secs.push(start.elapsed().as_secs_f64());
        }
        tally.poll(cache());
        phase.store(STOP, Ordering::Relaxed);
        let logs: Vec<Log> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (logs, secs, steal, tally)
    });
    Loop {
        logs,
        traced,
        secs,
        steal,
        cache,
    }
}

// ---------------------------------------------------------------------------
// Servers

/// A server running on its own thread.
struct Rig {
    addr: std::net::SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Rig {
    fn start(source: Source) -> Self {
        let server =
            Server::bind(source, "127.0.0.1:0", serve_config()).expect("bind loopback server");
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || {
            stats::pin(stats::Side::Server);
            server.run()
        });
        Self {
            addr,
            handle,
            thread,
        }
    }

    /// Shuts the server down and waits for it; `false` if it failed.
    fn stop(self) -> bool {
        self.handle.shutdown();
        drop(self.handle);
        matches!(self.thread.join(), Ok(Ok(())))
    }
}

pub fn build_pack(data: &[Series]) -> Vec<u8> {
    let mut w = StoreWriter::new(StoreConfig::default());
    for s in data {
        w.ingest(&s.name, &s.stamps, &s.values)
            .expect("ingest series into pack");
    }
    w.finish().expect("finish pack")
}

fn scrape_get(conn: &mut Option<Conn>, addr: std::net::SocketAddr, target: &str) -> String {
    if conn.is_none() {
        *conn = Conn::connect(addr).ok();
    }
    match conn.as_mut().map(|c| c.get(target)) {
        Some(Ok(r)) if r.status == 200 => String::from_utf8_lossy(&r.body).into_owned(),
        _ => {
            *conn = None;
            String::new()
        }
    }
}

// ---------------------------------------------------------------------------
// Runs

/// What a set-up mounted behind the server.
enum Mounted {
    Pack {
        store: Arc<Store>,
        pack_len: usize,
    },
    Live {
        ing: Arc<Ingestor>,
        background: BackgroundHandle,
        dir: PathBuf,
    },
}

impl Mounted {
    /// Builds (or opens) the workload's source and starts a server on it;
    /// returns the set-up time with them. A live set-up reopens a copy of
    /// `template`, replaying its WAL; the copy is not timed.
    fn set_up(st: &Settings, data: &[Series], template: &Path, r: usize) -> (Self, Rig, f64) {
        match st.workload {
            Workload::PointHot | Workload::ScanCold => {
                let t0 = Instant::now();
                let pack = build_pack(data);
                let pack_len = pack.len();
                let store = Arc::new(Store::open(pack).expect("open pack"));
                let rig = Rig::start(Source::Pack(Arc::clone(&store)));
                let secs = t0.elapsed().as_secs_f64();
                (Mounted::Pack { store, pack_len }, rig, secs)
            }
            Workload::IngestLive => {
                let dir = st.tmp.join(format!("live-{r}"));
                copy_dir(template, &dir).expect("copy the live template");
                let t0 = Instant::now();
                let ing = Arc::new(Ingestor::open(&dir, ingest_config()).expect("open ingest dir"));
                let background = ing.start_background(BackgroundConfig::default());
                let rig = Rig::start(Source::Live(Arc::clone(&ing)));
                let secs = t0.elapsed().as_secs_f64();
                (
                    Mounted::Live {
                        ing,
                        background,
                        dir,
                    },
                    rig,
                    secs,
                )
            }
        }
    }

    fn cache_stats(&self) -> CacheStats {
        match self {
            Mounted::Pack { store, .. } => store.cache_stats(),
            Mounted::Live { ing, .. } => ing.cache_stats(),
        }
    }

    /// Releases a set-up that will not be measured.
    fn discard(self) {
        if let Mounted::Live {
            ing,
            background,
            dir,
        } = self
        {
            background.stop();
            drop(ing);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Counts of checked operations.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }
}

pub fn run(st: &Settings) -> Report {
    let epoch = Instant::now();
    let data = Arc::new(data::generate(st.seed, st.sizes.points));
    let mut gate = Gate::default();
    let mut notes = Vec::new();
    let template = st.tmp.join("live-template");
    if st.workload == Workload::IngestLive {
        write_template(&template, &data, st.sizes.preload);
    }
    let lanes = match st.workload {
        Workload::ScanCold => 1,
        Workload::PointHot | Workload::IngestLive => 2,
    };
    let trace_cap = if st.trace { 200_000 } else { 0 };
    let logs: Vec<Log> = (0..lanes)
        .map(|_| Log::new(st.seconds, Tracer::new(epoch, trace_cap)))
        .collect();
    // Everything the benchmark itself holds is in place: beyond this the
    // heap grows only with the program's memory.
    let mut heap = HeapPeak::baseline();

    // --- Set-up, repeated: `setup_s` is the median.
    let mut setup_s = Vec::new();
    let mut current: Option<(Mounted, Rig)> = None;
    // `setup_s` is end-to-end only: a traced run sets up once.
    let setups = if st.trace { 1 } else { st.sizes.setups.max(1) };
    for r in 0..setups {
        if let Some((m, rig)) = current.take() {
            gate.check(rig.stop());
            m.discard();
        }
        let (m, rig, secs) = Mounted::set_up(st, &data, &template, r);
        setup_s.push(secs);
        current = Some((m, rig));
    }
    let _ = std::fs::remove_dir_all(&template);
    let (mounted, rig) = current.expect("at least one set-up");
    let addr = rig.addr;
    heap.sample();

    // --- Clients, after priming the cache.
    let preloaded = if st.workload == Workload::IngestLive {
        st.sizes.preload
    } else {
        0
    };
    let acked: Acked = Arc::new(
        (0..data.len())
            .map(|_| AtomicUsize::new(preloaded))
            .collect(),
    );
    let plan =
        |lane: u64, points: usize, span: usize| Plan::new(st.seed, lane, data.len(), points, span);
    let clients: Vec<Box<dyn Client>> = match st.workload {
        Workload::PointHot | Workload::ScanCold => {
            // One request into every segment, so measuring starts from a
            // cache that has seen the whole pack once.
            let mut conn = Conn::connect(addr).expect("connect priming client");
            for s in data.iter() {
                for k in (0..s.values.len()).step_by(neats_store::DEFAULT_SEGMENT_POINTS) {
                    let reply = conn.get(&format!("/q/{}?idx={k}", s.name));
                    gate.check(matches!(reply, Ok(r) if r.status == 200
                        && body_is(&r.body, std::iter::once(s.values[k]))));
                }
            }
            if st.workload == Workload::PointHot {
                (0..lanes as u64)
                    .map(|lane| {
                        Box::new(PointClient {
                            plan: plan(lane, st.sizes.points, 1),
                            first: true,
                            data: Arc::clone(&data),
                            fault: if lane == 0 { st.fault } else { None },
                        }) as Box<dyn Client>
                    })
                    .collect()
            } else {
                let len = st.sizes.range_len;
                vec![Box::new(RangeClient {
                    plan: plan(0, st.sizes.points, len),
                    len,
                    data: Arc::clone(&data),
                })]
            }
        }
        Workload::IngestLive => vec![
            Box::new(WriterClient {
                data: Arc::clone(&data),
                next: 0,
                acked: Arc::clone(&acked),
                body: Vec::new(),
            }),
            Box::new(ReaderClient {
                plan: plan(1, usize::MAX / 2, 1),
                data: Arc::clone(&data),
                acked: Arc::clone(&acked),
            }),
        ],
    };

    // --- The closed loop; a traced run scrapes the server as it goes.
    let mut scrapes: Vec<(String, String)> = Vec::new();
    let mut scrape_conn = None;
    let lp = {
        let mut scrape = || {
            let body = scrape_get(&mut scrape_conn, addr, "/debug/requests");
            scrapes.push(("/debug/requests".into(), body));
        };
        drive(
            addr,
            clients,
            logs,
            st,
            &|| mounted.cache_stats(),
            &mut heap,
            &mut scrape,
        )
    };
    if st.trace {
        let body = scrape_get(&mut scrape_conn, addr, "/metrics");
        scrapes.push(("/metrics".into(), body));
    }
    drop(scrape_conn);
    for log in &lp.logs {
        gate.attempted += log.attempted;
        gate.failed += log.failed;
    }
    let dropped: u64 = lp.logs.iter().map(|l| l.lat.dropped).sum();
    if dropped > 0 {
        notes.push(format!(
            "warning: {dropped} latency samples did not fit the sample buffers and were not kept"
        ));
    }

    // --- Teardown and, for the live workload, the durability check.
    gate.check(rig.stop());
    let total_points = data.len() * st.sizes.points;
    let (bytes_per_point, peak_heap_mb, live) = match mounted {
        Mounted::Pack { pack_len, .. } => {
            (pack_len as f64 / total_points as f64, heap.grown_mb(), None)
        }
        Mounted::Live {
            ing,
            background,
            dir,
        } => {
            background.stop();
            let ing = Arc::try_unwrap(ing)
                .unwrap_or_else(|_| panic!("ingestor still shared after shutdown"));
            gate.check(ing.flush().is_ok());
            heap.sample();
            drop(ing);
            let mut ledger: Vec<usize> = acked.iter().map(|a| a.load(Ordering::Acquire)).collect();
            if st.fault == Some(Fault::DropWrite) {
                ledger[0] += 1;
            }
            let (reopen_ms, lost) = reopen_and_verify(&dir, &data, &ledger);
            let acked_points: u64 = ledger.iter().sum::<usize>() as u64;
            gate.attempted += acked_points;
            gate.failed += lost;
            let bytes = pack_bytes(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            notes.push(format!(
                "durability: {acked_points} acknowledged points re-read after flush, drop and reopen; {lost} lost or wrong"
            ));
            (
                bytes as f64 / acked_points.max(1) as f64,
                heap.grown_mb(),
                Some(reopen_ms),
            )
        }
    };

    let mut tracer = Tracer::new(epoch, 0);
    let primary = st.workload.primary();
    let metrics = if st.trace {
        let mut m = traced_metrics(
            st,
            &data,
            &lp,
            &scrapes,
            live,
            &mut notes,
            epoch,
            &mut tracer,
        );
        m.sort_by_key(|x| x.name);
        m
    } else {
        let quiet = lp.quiet();
        let (main, read) = tails(&lp, primary, &quiet);
        let values_per_s = lp.rate(primary, &quiet);
        let kept = quiet.iter().filter(|&&q| q).count();
        notes.push(format!(
            "{}: n={} in {kept} of {} windows (those with no more hypervisor steal than the median window; \
             steal ticks per window: {:?}); p50 {:.2} us, p99 {:.2} us; reads n={} p99 {:.2} us",
            primary.name(), main.n, quiet.len(), lp.steal, main.p50_us, main.p99_us, read.n, read.p99_us
        ));
        notes.push(format!("set-ups {setup_s:?} s"));
        vec![
            metric("setup_s", stats::median(&setup_s), "s"),
            metric("peak_heap_mb", peak_heap_mb, "MiB"),
            metric("bytes_per_point", bytes_per_point, "B"),
            metric("p50_us", main.p50_us, "us"),
            metric("values_per_s", values_per_s, "1/s"),
        ]
    };
    for log in lp.logs {
        tracer.absorb(log.tracer);
    }
    Report {
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        notes,
        scrapes,
        tracer,
    }
}

/// Pooled exact percentiles of the main requests and of all reads in the
/// windows `keep`.
fn tails(lp: &Loop, primary: Kind, keep: &[bool]) -> (Latency, Latency) {
    let main =
        Latency::of(lp.samples(&[primary], keep)).expect("no successful request was measured");
    let read = Latency::of(lp.samples(&[Kind::Point, Kind::Range], keep))
        .expect("no successful read was measured");
    (main, read)
}

/// The traced run's per-layer figures: the layer microbenchmarks, the
/// server's own stage timings, cache counters, shares and tracing overhead.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    st: &Settings,
    data: &[Series],
    lp: &Loop,
    scrapes: &[(String, String)],
    live: Option<f64>,
    notes: &mut Vec<String>,
    epoch: Instant,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let primary = st.workload.primary();
    let (request_bytes, response_bytes) = lp.mean_bytes(primary);
    let mut layer_tracer = Tracer::new(epoch, 4096);
    let mut m = layers::measure(
        data,
        st.seed,
        &st.tmp,
        &st.sizes.layers,
        layers::Echo {
            request_bytes,
            response_bytes,
        },
        &mut layer_tracer,
    );
    tracer.absorb(layer_tracer);
    let get = |m: &[Metric], name: &str| {
        m.iter()
            .find(|x| x.name == name)
            .map_or(f64::NAN, |x| x.value)
    };

    // Tracing overhead: the same workload in interleaved windows.
    let untraced: Vec<bool> = lp.traced.iter().map(|t| !t).collect();
    let off = Latency::of(lp.samples(&[primary], &untraced)).expect("no untraced sample");
    let on = Latency::of(lp.samples(&[primary], &lp.traced)).expect("no traced sample");
    m.push(metric("trace.p50_untraced_us", off.p50_us, "us"));
    m.push(metric("trace.p50_traced_us", on.p50_us, "us"));
    m.push(metric(
        "trace.overhead_pct",
        (on.p50_us - off.p50_us) / off.p50_us * 100.0,
        "%",
    ));
    let (main, read) = tails(lp, primary, &lp.quiet());
    m.push(metric("tail.p99_us", main.p99_us, "us"));
    m.push(metric("tail.read_p99_us", read.p99_us, "us"));
    notes.push(format!(
        "tracing: untraced n={} p50 {:.2} us, traced n={} p50 {:.2} us",
        off.n, off.p50_us, on.n, on.p50_us
    ));

    // Cache counters over the measured window.
    let (hits, misses) = (lp.cache.hits as f64, lp.cache.misses as f64);
    let reads = lp.requests(Kind::Point) + lp.requests(Kind::Range);
    m.push(metric(
        "store.cache_hit_rate",
        hits / (hits + misses).max(1.0),
        "ratio",
    ));
    m.push(metric(
        "store.misses_per_request",
        misses / reads.max(1) as f64,
        "count",
    ));

    // The server's own stage timings, from every `/debug/requests` scrape.
    let mut entries: Vec<DebugEntry> = scrapes
        .iter()
        .filter(|(what, _)| what == "/debug/requests")
        .flat_map(|(_, body)| parse_debug(body))
        .filter(|e| match primary {
            Kind::Write => e.path == "/write",
            _ => e.path.starts_with("/q/"),
        })
        .collect();
    entries.sort_by_key(|e| e.seq);
    entries.dedup_by_key(|e| e.seq);
    let med = |f: &dyn Fn(&DebugEntry) -> f64| {
        let xs: Vec<f64> = entries.iter().map(f).collect();
        if xs.is_empty() {
            f64::NAN
        } else {
            stats::median(&xs)
        }
    };
    let server_total = med(&|e| e.total_us);
    m.push(metric("serve.server_total_us", server_total, "us"));
    for (i, name) in [
        "serve.parse_us",
        "serve.route_us",
        "serve.cache_us",
        "serve.decode_us",
        "serve.render_us",
        "serve.write_us",
    ]
    .into_iter()
    .enumerate()
    {
        m.push(metric(name, med(&|e| e.stages[i]), "us"));
    }
    m.push(metric(
        "serve.unaccounted_us",
        on.p50_us - server_total,
        "us",
    ));
    m.push(metric(
        "serve.response_bytes_per_value",
        response_bytes as f64 / lp.values_per_request(primary),
        "B",
    ));
    notes.push(format!(
        "server stages: medians of {} traced {} requests; `decode` covers only segment open on a cache miss, value decode runs under `route`, and `write` times only the WAL append of POST /write, never the response write (known misattributions)",
        entries.len(),
        primary.name()
    ));

    // The live run's own seal, fsync and reopen figures replace the
    // direct-append run's.
    if let Some(reopen_ms) = live {
        let text = scrapes
            .iter()
            .find(|(w, _)| w == "/metrics")
            .map_or("", |(_, b)| b.as_str());
        m.retain(|x| {
            !matches!(
                x.name,
                "ingest.seal_ms" | "ingest.seals" | "ingest.fsyncs" | "ingest.reopen_ms"
            )
        });
        m.push(metric("ingest.seal_ms", layers::seal_ms(text), "ms"));
        m.push(metric(
            "ingest.seals",
            prom_value(text, "neats_ingest_seals_total").unwrap_or(f64::NAN),
            "count",
        ));
        m.push(metric(
            "ingest.fsyncs",
            prom_value(text, "neats_ingest_wal_sync_ns_count").unwrap_or(f64::NAN),
            "count",
        ));
        m.push(metric("ingest.reopen_ms", reopen_ms, "ms"));
    }

    // Shares of the traced client p50: the storage call alone, the rest of
    // the server, the kernel's loopback floor, and the residual.
    let storage_us = match primary {
        Kind::Point => get(&m, "store.get_hit_ns") / 1e3,
        Kind::Range => {
            st.sizes.range_len as f64 * get(&m, "store.range_ns_per_value") / 1e3
                + get(&m, "store.misses_per_request") * get(&m, "view.open_us")
        }
        Kind::Write => get(&m, "ingest.append_p50_us"),
    };
    let kernel_us = get(&m, "net.loopback_rtt_us");
    let pct = |us: f64| us / on.p50_us * 100.0;
    m.push(metric("share.storage_pct", pct(storage_us), "%"));
    m.push(metric(
        "share.serve_pct",
        pct(server_total - storage_us),
        "%",
    ));
    m.push(metric("share.kernel_pct", pct(kernel_us), "%"));
    m.push(metric(
        "share.residual_pct",
        pct(on.p50_us - server_total - kernel_us),
        "%",
    ));
    m
}

/// Writes the first `preload` points of every series into a fresh ingest
/// directory by direct appends and leaves them in its WAL (no flush), so
/// that every live set-up replays the same log.
fn write_template(dir: &Path, data: &[Series], preload: usize) {
    let _ = std::fs::remove_dir_all(dir);
    let ing = Ingestor::open(dir, ingest_config()).expect("open template dir");
    for from in (0..preload).step_by(BATCH) {
        let r = from..(from + BATCH).min(preload);
        for s in data {
            ing.append(&s.name, &s.stamps[r.clone()], &s.values[r.clone()])
                .expect("preload append");
        }
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Reopens the ingest directory and checks every acknowledged point:
/// returns the reopen time in ms and the count of lost or wrong points.
fn reopen_and_verify(dir: &Path, data: &[Series], ledger: &[usize]) -> (f64, u64) {
    let t0 = Instant::now();
    let Ok(ing) = Ingestor::open(dir, ingest_config()) else {
        return (f64::NAN, ledger.iter().sum::<usize>() as u64);
    };
    let reopen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut lost = 0u64;
    for (s, &want) in data.iter().zip(ledger) {
        let have = ing.len(&s.name).unwrap_or(0);
        let mut got = Vec::new();
        if ing.range(&s.name, 0..have.min(want), &mut got).is_err() {
            got.clear();
        }
        let matching = got
            .iter()
            .enumerate()
            .filter(|&(k, &v)| v == s.cycled(k).1)
            .count();
        lost += (want - matching.min(want)) as u64;
    }
    (reopen_ms, lost)
}

/// Bytes of the sealed pack(s) in an ingest directory.
fn pack_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(".pack"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One `/debug/requests` entry: path and per-stage microseconds.
#[derive(Clone, Debug)]
pub struct DebugEntry {
    pub seq: u64,
    pub path: String,
    pub total_us: f64,
    pub stages: [f64; 6],
}

pub const STAGES: [&str; 6] = ["parse", "route", "cache", "decode", "render", "write"];

/// Parses the `/debug/requests` JSON (one flat object per line).
pub fn parse_debug(body: &str) -> Vec<DebugEntry> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let pat = format!("\"{key}\": ");
        let at = line.find(&pat)? + pat.len();
        let rest = &line[at..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
    body.lines()
        .filter(|l| l.contains("\"seq\": "))
        .filter_map(|l| {
            let mut stages = [0.0; 6];
            for (i, s) in STAGES.iter().enumerate() {
                stages[i] = field(l, &format!("{s}_us"))?.parse().ok()?;
            }
            Some(DebugEntry {
                seq: field(l, "seq")?.parse().ok()?,
                path: field(l, "path")?.trim_matches('"').to_string(),
                total_us: field(l, "total_us")?.parse().ok()?,
                stages,
            })
        })
        .collect()
}

/// The value of an unlabelled sample `name` in Prometheus text.
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::body_is;

    #[test]
    fn a_body_must_hold_exactly_the_expected_values() {
        let want = [3i64, -1, 7];
        assert!(body_is(b"3\n-1\n7\n", want.iter().copied()));
        assert!(!body_is(b"3\n-1\n8\n", want.iter().copied()), "wrong value");
        assert!(!body_is(b"3\n-1\n", want.iter().copied()), "missing value");
        assert!(
            !body_is(b"3\n-1\n7\n9\n", want.iter().copied()),
            "extra value"
        );
        assert!(!body_is(b"3\nx\n7\n", want.iter().copied()), "not a number");
    }
}
