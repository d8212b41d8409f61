//! `serve-mixed`: a file-backed WAL store built the way `boxagg build`
//! builds one, reopened and served on loopback by `ServerHandle` with
//! `ServeConfig::default()`, under two open-loop Poisson connections:
//! a reader sending QBS-1% box-sums at a fixed rate well below the
//! server's knee, and a writer sending small insert batches, each
//! followed by a commit.
//!
//! Reads run on commit-epoch snapshots, which bypass the decoded-node
//! cache, and pay the admission window with no companions (one reader
//! connection, so groups equal queries) plus framing. Commits pay the
//! WAL append and fsync, and writes land beside reads across epochs.
//! The writer inserts only into a strip no reader box touches, so every
//! served answer must equal the base set's oracle while commits land.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use boxagg_batree::BATree;
use boxagg_common::geom::{Point, Rect};
use boxagg_common::rng::StdRng;
use boxagg_core::batch::persist_corner_engine;
use boxagg_core::engine::SimpleBoxSum;
use boxagg_pagestore::{Backing, FilePager, SharedStore, StoreConfig};
use boxagg_serve::{Client, ServeConfig, ServerHandle};
use boxagg_workload::{gen_objects, gen_queries, DatasetConfig};

use crate::common::{
    oracle_sum, serve_delta, store_config, sub_seed, Checker, Layers, RunArgs, DIM, PAGE_SIZE,
};
use crate::stats::{median, min, percentile, require_tail, Report, Windows};
use crate::trace::{PagerCounters, TimingPager, Tracer};

/// Objects in the served index.
const N: usize = 5_000;
/// `boxagg build` and `boxagg serve` open stores with a 64 MiB buffer.
const BUFFER_PAGES: usize = 64 * 1024 * 1024 / PAGE_SIZE;
/// Reader box-sums per second (the server's knee is several times higher).
const READ_RATE: f64 = 400.0;
/// Writer commits per second.
const COMMIT_RATE: f64 = 10.0;
/// Inserts sent before each commit.
const WRITE_BATCH: usize = 4;
/// Distinct reader boxes, cycled; every answer is checked.
const POOL: usize = 2_000;
const QBS: f64 = 0.01;
/// Reader boxes end left of this x; writer objects start right of it.
const STRIP_X: f64 = 0.96;
/// Segments of an untraced run. Each builds and serves a dataset of its
/// own and carries an equal share of the load, so every metric samples
/// the whole run.
const SEGMENTS: usize = 5;
/// Set-ups (build and serve) timed per segment.
const SETUP_TIMINGS: usize = 2;
/// Open-loop generator threads and connections: one reader, one writer.
const GENERATOR_THREADS: u64 = 2;
/// A generator that ends a run this far behind its schedule has lost
/// the open loop: the backlog grew, and the run is invalid.
const MAX_FINAL_LAG: Duration = Duration::from_secs(1);

struct Inputs {
    space: Rect,
    objects: Vec<(Rect, f64)>,
    pool: Vec<Rect>,
}

fn inputs(seed: u64) -> Inputs {
    let cfg = DatasetConfig::paper(N, seed);
    let pool = gen_queries(DIM, 2 * POOL, QBS, seed ^ 0x5E7E_0001)
        .into_iter()
        .filter(|q| q.high().get(0) < STRIP_X)
        .take(POOL)
        .collect::<Vec<_>>();
    assert_eq!(pool.len(), POOL, "too few reader boxes left of the strip");
    Inputs {
        space: cfg.space(),
        objects: gen_objects(&cfg),
        pool,
    }
}

/// Pager instruments of a traced store.
#[derive(Clone)]
struct Probe {
    counters: Arc<PagerCounters>,
    tracer: Arc<Tracer>,
}

fn config(path: &Path) -> StoreConfig {
    store_config(BUFFER_PAGES, Backing::File(path.to_path_buf()), true)
}

fn open(
    path: &Path,
    probe: Option<&Probe>,
    pager: impl FnOnce() -> boxagg_common::error::Result<FilePager>,
) -> boxagg_common::error::Result<SharedStore> {
    match probe {
        None => SharedStore::open(&config(path)),
        Some(p) => SharedStore::open_with_pager(
            Box::new(TimingPager::new(
                Box::new(pager()?),
                Arc::clone(&p.counters),
                Arc::clone(&p.tracer),
            )),
            &config(path),
        ),
    }
}

/// What a build measured.
struct Built {
    insert_ns: Vec<f64>,
    live_pages: u64,
}

/// `boxagg build`: a fresh file store, every object inserted, the
/// engine published in the catalog and committed.
fn build(
    path: &Path,
    inp: &Inputs,
    probe: Option<&Probe>,
    report: &mut Report,
) -> boxagg_common::error::Result<Built> {
    for stale in [path.to_path_buf(), boxagg_pagestore::pager::wal_path(path)] {
        match std::fs::remove_file(&stale) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
    }
    let store = open(path, probe, || FilePager::create(path, PAGE_SIZE))?;
    let mut engine = SimpleBoxSum::<BATree<f64>>::batree_in(inp.space, store.clone())?;
    let mut insert_ns = Vec::with_capacity(N);
    for (rect, value) in &inp.objects {
        let t = Instant::now();
        let res = engine.insert(rect, *value);
        insert_ns.push(t.elapsed().as_nanos() as f64);
        report.attempted += 1;
        if res.is_err() {
            report.failed += 1;
        }
    }
    persist_corner_engine(&engine, &inp.space)?;
    store.commit()?;
    Ok(Built {
        insert_ns,
        live_pages: store.live_pages(),
    })
}

/// A served store with its two generator connections.
struct Served {
    server: ServerHandle,
    store: SharedStore,
    reader: Client,
    writer: Client,
}

/// `boxagg serve`: reopen the built store and serve it on loopback.
fn serve(path: &Path, probe: Option<&Probe>) -> boxagg_common::error::Result<Served> {
    let store = open(path, probe, || FilePager::open(path, PAGE_SIZE))?;
    let server = ServerHandle::bind(store.clone(), "127.0.0.1:0", ServeConfig::default())?;
    let addr: SocketAddr = server.local_addr();
    Ok(Served {
        reader: Client::connect(addr)?,
        writer: Client::connect(addr)?,
        server,
        store,
    })
}

impl Served {
    fn shutdown(self) {
        drop(self.reader);
        drop(self.writer);
        self.server.shutdown();
    }
}

/// What the open-loop load measured.
#[derive(Default)]
struct Load {
    /// Box-sum latency from its scheduled send, ns, in windows of
    /// scheduled time.
    read_ns: Windows,
    /// Insert batch + commit latency from its scheduled send, ns.
    commit_ns: Vec<f64>,
    /// How late each request was sent after its due time, ns.
    lag_ns: Vec<f64>,
    reads_ok: u64,
    commits_ok: u64,
    secs: f64,
}

/// Exponential inter-arrival gap of a Poisson process at `rate` per second.
fn gap(rng: &mut StdRng, rate: f64) -> Duration {
    let u: f64 = rng.gen();
    Duration::from_secs_f64(-(1.0 - u).ln() / rate)
}

/// How early a generator thread stops sleeping and starts spinning, so
/// timer wake-up delay stays out of the measured latency.
const SPIN: Duration = Duration::from_micros(200);

/// Waits until `due`; returns how late the send is.
fn wait_until(due: Instant) -> Duration {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
    Instant::now().saturating_duration_since(due)
}

fn in_span<T>(tracer: Option<&Tracer>, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, req, f),
        None => f(),
    }
}

/// Drives both connections for `secs` seconds on seeded Poisson
/// schedules: the writer on a thread of its own, the reader here.
#[allow(clippy::too_many_arguments)]
fn load(
    served: &mut Served,
    inp: &Inputs,
    oracle: &[f64],
    checker: &mut Checker,
    report: &mut Report,
    secs: f64,
    seed: u64,
    tracer: Option<&Tracer>,
) -> Load {
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(secs);
    let writer = &mut served.writer;
    let reader = &mut served.reader;
    let (mut out, (commit_ns, lag_w, commits_ok, commits_failed, final_lag_w)) =
        std::thread::scope(|s| {
            let w = s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x3717_3A11);
                let (mut lat, mut lag) = (Vec::new(), Vec::new());
                let (mut ok, mut failed) = (0u64, 0u64);
                let mut due = start + gap(&mut rng, COMMIT_RATE);
                let mut last_lag = Duration::ZERO;
                let mut req = 1u64 << 40;
                while due < end {
                    last_lag = wait_until(due);
                    lag.push(last_lag.as_nanos() as f64);
                    let mut res = Ok(0);
                    for _ in 0..WRITE_BATCH {
                        let rect = strip_object(&mut rng);
                        let value = 1.0 + rng.gen::<f64>() * 99.0;
                        req += 1;
                        res = in_span(tracer, "serve.client.insert", req, || {
                            writer.insert(&rect, value)
                        });
                        if res.is_err() {
                            break;
                        }
                    }
                    if res.is_ok() {
                        req += 1;
                        res = in_span(tracer, "serve.client.commit", req, || writer.commit());
                    }
                    lat.push(due.elapsed().as_nanos() as f64);
                    match res {
                        Ok(_) => ok += 1,
                        Err(_) => failed += 1,
                    }
                    due += gap(&mut rng, COMMIT_RATE);
                }
                (lat, lag, ok, failed, last_lag)
            });

            let mut out = Load::default();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x8EAD_E401);
            let mut due = start + gap(&mut rng, READ_RATE);
            let mut i = 0usize;
            let mut last_lag = Duration::ZERO;
            while due < end {
                last_lag = wait_until(due);
                out.lag_ns.push(last_lag.as_nanos() as f64);
                let j = i % inp.pool.len();
                let res = in_span(tracer, "serve.client.box_sum", i as u64 + 1, || {
                    reader.box_sum(&inp.pool[j])
                });
                out.read_ns
                    .push_at((due - start).as_secs_f64(), due.elapsed().as_nanos() as f64);
                report.attempted += 1;
                match res {
                    Ok(sum) => {
                        out.reads_ok += 1;
                        checker.check(report, "served box-sum", sum, oracle[j]);
                    }
                    Err(_) => report.failed += 1,
                }
                i += 1;
                due += gap(&mut rng, READ_RATE);
            }
            if last_lag > MAX_FINAL_LAG {
                report.problem(format!("reader ended {last_lag:?} behind schedule"));
            }
            (out, w.join().expect("writer thread panicked"))
        });
    out.secs = secs;
    out.commit_ns = commit_ns;
    out.lag_ns.extend(lag_w);
    out.commits_ok = commits_ok;
    report.attempted += commits_ok + commits_failed;
    report.failed += commits_failed;
    if final_lag_w > MAX_FINAL_LAG {
        report.problem(format!("writer ended {final_lag_w:?} behind schedule"));
    }
    out
}

/// A paper-sized object inside the writer's strip, right of every
/// reader box.
fn strip_object(rng: &mut StdRng) -> Rect {
    let side = 1e-4;
    let x = STRIP_X + 0.01 + rng.gen::<f64>() * 0.02;
    let y = rng.gen::<f64>() * (1.0 - side);
    Rect::new(
        Point::new(&[x, y]),
        Point::new(&[x + rng.gen::<f64>() * side, y + rng.gen::<f64>() * side]),
    )
}

/// One set-up: inputs, the build, the reopen and the server start.
fn set_up(
    path: &Path,
    seed: u64,
    probe: Option<&Probe>,
    report: &mut Report,
) -> boxagg_common::error::Result<(f64, Inputs, Built, Served)> {
    let t = Instant::now();
    let inp = inputs(seed);
    let built = build(path, &inp, probe, report)?;
    let served = serve(path, probe)?;
    Ok((t.elapsed().as_secs_f64(), inp, built, served))
}

pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::new();
    match run_inner(args, &mut report) {
        Ok(()) => {}
        Err(e) => report.problem(format!("serve-mixed: {e}")),
    }
    report
}

fn run_inner(args: &RunArgs, report: &mut Report) -> boxagg_common::error::Result<()> {
    let path = args.work_dir.join("serve.pages");
    // A traced run spends four fifths untraced, enough commits for the
    // untraced commit p95, and a fifth traced.
    let (segments, secs) = if args.trace {
        (1, args.seconds * 4.0 / 5.0)
    } else {
        (SEGMENTS, args.seconds / SEGMENTS as f64)
    };
    let mut setup = Vec::with_capacity(segments);
    let mut inserts = Windows::default();
    let mut live_pages = 0;
    let mut plain = Load::default();
    let mut last = None;
    for k in 0..segments {
        // Each set-up is timed twice; the second build is served.
        let mut current = None;
        for _ in 0..SETUP_TIMINGS {
            if let Some((_, _, served)) = current.take() {
                Served::shutdown(served);
            }
            let (s, inp, built, served) = set_up(&path, sub_seed(args.seed, k), None, report)?;
            setup.push(s);
            inserts.push_window(built.insert_ns.clone());
            current = Some((inp, built, served));
        }
        let (inp, built, mut served) = current.expect("at least one set-up");
        live_pages += built.live_pages;
        let oracle: Vec<f64> = inp
            .pool
            .iter()
            .map(|q| oracle_sum(&inp.objects, q))
            .collect();
        let mut checker = Checker::new(&inp.objects);
        let before = served.server.stats();
        let seg = load(
            &mut served,
            &inp,
            &oracle,
            &mut checker,
            report,
            secs,
            sub_seed(args.seed, k),
            None,
        );
        let delta = serve_delta(&served.server.stats(), &before);
        if delta.queries != seg.reads_ok || delta.commits != seg.commits_ok {
            report.problem(format!(
                "server counted {} queries / {} commits, the generator {} / {}",
                delta.queries, delta.commits, seg.reads_ok, seg.commits_ok
            ));
        }
        served.shutdown();
        eprintln!(
            "serve-mixed segment {k}: {} reads, {} commits in {} rounds, {:.1} decodes per query, worst answer error {:.2}x the contract estimate",
            seg.reads_ok,
            delta.commits,
            delta.commit_rounds,
            delta.node_decodes as f64 / delta.queries.max(1) as f64,
            checker.worst_vs_estimate()
        );
        plain.read_ns.append(seg.read_ns);
        plain.commit_ns.extend(seg.commit_ns);
        plain.lag_ns.extend(seg.lag_ns);
        plain.reads_ok += seg.reads_ok;
        plain.commits_ok += seg.commits_ok;
        plain.secs += seg.secs;
        last = Some((inp, oracle, checker, built.insert_ns));
    }

    if args.trace {
        let (inp, oracle, mut checker, built_ns) = last.expect("one segment ran");
        return traced(
            args,
            &path,
            &inp,
            &oracle,
            &mut checker,
            report,
            plain,
            built_ns,
        );
    }

    let m = &mut report.metrics;
    m.put("setup_s", min(&setup), "s");
    m.put("insert_per_s", inserts.best_rate(), "1/s");
    m.put("query_per_s", plain.reads_ok as f64 / plain.secs, "1/s");
    m.put("query_p50_us", plain.read_ns.best_median() / 1e3, "us");
    m.put(
        "index_bytes_per_object",
        (live_pages * PAGE_SIZE as u64) as f64 / (segments * N) as f64,
        "B",
    );
    Ok(())
}

/// Builds and serves again over timing pagers and repeats the load with
/// spans around every client call.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &RunArgs,
    path: &Path,
    inp: &Inputs,
    oracle: &[f64],
    checker: &mut Checker,
    report: &mut Report,
    mut plain: Load,
    built_ns: Vec<f64>,
) -> boxagg_common::error::Result<()> {
    let tracer = Tracer::new();
    let probe = Probe {
        counters: Arc::new(PagerCounters::default()),
        tracer: Arc::clone(&tracer),
    };
    build(path, inp, Some(&probe), report)?;
    // The served store gets counters of its own, so the build's page
    // traffic is not counted against the load.
    let probe = Probe {
        counters: Arc::new(PagerCounters::default()),
        tracer: Arc::clone(&tracer),
    };
    let mut served = serve(path, Some(&probe))?;
    let io_before = served.store.stats();
    let pager_before = probe.counters.totals();
    let stats_before = served.server.stats();
    let t = load(
        &mut served,
        inp,
        oracle,
        checker,
        report,
        args.seconds / 5.0,
        args.seed,
        Some(&tracer),
    );
    let delta = serve_delta(&served.server.stats(), &stats_before);
    if delta.queries != t.reads_ok || delta.commits != t.commits_ok {
        report.problem(format!(
            "server counted {} queries / {} commits, the generator {} / {}",
            delta.queries, delta.commits, t.reads_ok, t.commits_ok
        ));
    }
    let io = served.store.stats().since(&io_before);
    let pager = probe.counters.totals().since(&pager_before);
    served.shutdown();

    if let Err(e) = require_tail("commits", plain.commit_ns.len(), 95.0) {
        eprintln!("note: {e}");
    }
    let plain_p50 = median(&mut plain.read_ns.all());
    let layers = Layers {
        io,
        pager,
        spans: tracer.summary(),
        serve: Some(delta),
        untraced_insert_ns: built_ns,
        untraced_query_ns: plain.read_ns.all(),
        untraced_commit_ns: std::mem::take(&mut plain.commit_ns),
        lag_p99_ms: percentile(&mut plain.lag_ns, 99.0) / 1e6,
        threads: GENERATOR_THREADS,
        connections: GENERATOR_THREADS,
        checksum_ns_per_page: crate::common::checksum_ns_per_page(),
        overhead_frac: (median(&mut t.read_ns.all()) - plain_p50) / plain_p50,
        ..Layers::default()
    };
    layers.check_identities(report);
    layers.emit(&mut report.metrics);
    crate::write_trace(args, "serve-mixed", &tracer);
    Ok(())
}
