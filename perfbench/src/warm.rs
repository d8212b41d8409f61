//! `query-warm`: `batree_bulk` into a store whose buffer and decoded-node
//! cache hold the whole index, a warm-up pass, then closed-loop
//! single-thread box-sums over a seeded mix of query sizes
//! {0.01 %, 1 %, 10 %}.
//!
//! After warm-up the query phase does no pager I/O and every node read
//! is a decoded-node cache hit, so time goes to the corner reduction,
//! BA-tree traversal, slab scans and cache lookups. Pager and checksum
//! work is bypassed: a change to either must show no change here.

use std::sync::Arc;
use std::time::Instant;

use boxagg_batree::BATree;
use boxagg_common::geom::Rect;
use boxagg_common::rng::StdRng;
use boxagg_core::engine::SimpleBoxSum;
use boxagg_core::reduction::CornerBoxSum;
use boxagg_pagestore::{Backing, MemPager, SharedStore};
use boxagg_workload::{gen_objects, gen_queries, DatasetConfig};

use crate::common::{oracle_sum, store_config, sub_seed, Checker, Layers, RunArgs, DIM, PAGE_SIZE};
use crate::stats::{min, Report, Windows};
use crate::trace::{PagerCounters, TimingPager, Tracer};

/// Objects bulk-loaded. The index (~430 pages) and its decoded nodes
/// stay within a core's private caches, so the timings do not swing
/// with other tenants' use of the shared last-level cache.
const N: usize = 5_000;
/// 64 MiB of 8 KiB pages: the index fits with room to spare.
const BUFFER_PAGES: usize = 8_192;
/// Query sizes of the mix, as fractions of the space.
const QBS_MIX: [f64; 3] = [0.0001, 0.01, 0.1];
/// Queries of each size in the cycled pool; every answer is checked.
const POOL_PER_QBS: usize = 1_000;
/// Segments of an untraced run. Each loads a dataset of its own and
/// carries an equal share of the queries, so every metric samples the
/// whole run.
const SEGMENTS: usize = 10;
/// Set-ups timed per segment; `setup_s` and the bulk-load rate come from
/// the fastest.
const SETUP_TIMINGS: usize = 3;
/// Bytes of value stored per corner-tree entry (one `f64`).
const VALUE_SIZE: usize = 8;

struct Inputs {
    space: Rect,
    objects: Vec<(Rect, f64)>,
    pool: Vec<Rect>,
}

fn inputs(seed: u64) -> Inputs {
    let cfg = DatasetConfig::paper(N, seed);
    let mut pool: Vec<Rect> = QBS_MIX
        .iter()
        .enumerate()
        .flat_map(|(i, &qbs)| gen_queries(DIM, POOL_PER_QBS, qbs, seed ^ (0xA11C_E000 + i as u64)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F00D);
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.gen_range(0..i + 1));
    }
    Inputs {
        space: cfg.space(),
        objects: gen_objects(&cfg),
        pool,
    }
}

type Engine = SimpleBoxSum<BATree<f64>>;

/// One pass over the query pool, checking every answer; records each
/// latency in the time window (since `start`) it completed in.
#[allow(clippy::too_many_arguments)]
fn pass(
    engine: &mut Engine,
    inp: &Inputs,
    oracle: &[f64],
    checker: &mut Checker,
    report: &mut Report,
    tracer: Option<&Tracer>,
    start: Instant,
    lat: &mut Windows,
) {
    for (j, q) in inp.pool.iter().enumerate() {
        let t = Instant::now();
        let res = match tracer {
            Some(tr) => tr.span("core.query", j as u64 + 1, || engine.query(q)),
            None => engine.query(q),
        };
        lat.push_at(start.elapsed().as_secs_f64(), t.elapsed().as_nanos() as f64);
        report.attempted += 1;
        match res {
            Ok(sum) => checker.check(report, "query-warm box-sum", sum, oracle[j]),
            Err(_) => report.failed += 1,
        }
    }
}

/// Warm-up: one unchecked, untimed pass so every node is decoded and
/// cached before measurement.
fn warm_up(engine: &mut Engine, inp: &Inputs, report: &mut Report) {
    for q in &inp.pool {
        if engine.query(q).is_err() {
            report.problem("warm-up query failed");
            return;
        }
    }
}

fn config() -> boxagg_pagestore::StoreConfig {
    store_config(BUFFER_PAGES, Backing::Memory, false)
}

/// Bulk-loads the index over `store`: `batree_bulk`'s per-corner loads
/// in mask order, on a store the caller opened.
fn bulk_load(store: &SharedStore, inp: &Inputs) -> boxagg_common::error::Result<Engine> {
    let trees = (0..1usize << DIM)
        .map(|mask| {
            let pts = inp
                .objects
                .iter()
                .map(|(r, v)| (r.corner(mask), *v))
                .collect();
            BATree::bulk_load(store.clone(), inp.space, VALUE_SIZE, pts)
        })
        .collect::<boxagg_common::error::Result<Vec<_>>>()?;
    let mut engine = CornerBoxSum::from_indexes(DIM, trees)?;
    engine.restore_len(N);
    Ok(engine)
}

/// Segments, each over a dataset of its own: generate, `batree_bulk`
/// and warm up (the set-up), then passes over the segment's query pool
/// for its share of `--seconds`. `insert_per_s` is the bulk load's rate.
pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::new();
    let (segments, budget) = if args.trace {
        (1, args.seconds / 3.0)
    } else {
        (SEGMENTS, args.seconds / SEGMENTS as f64)
    };
    let mut setup = Vec::with_capacity(segments);
    let mut bulk = Vec::new();
    let mut lat = Windows::default();
    let mut live_pages = 0;
    let mut last = None;
    for k in 0..segments {
        // A set-up takes tens of milliseconds: time it a few times.
        let mut built = None;
        for _ in 0..SETUP_TIMINGS {
            drop(built.take());
            let t = Instant::now();
            let inp = inputs(sub_seed(args.seed, k));
            let tb = Instant::now();
            let mut engine = match Engine::batree_bulk(inp.space, config(), &inp.objects) {
                Ok(e) => e,
                Err(e) => {
                    report.problem(format!("bulk load: {e}"));
                    return report;
                }
            };
            bulk.push(tb.elapsed().as_nanos() as f64 / N as f64);
            warm_up(&mut engine, &inp, &mut report);
            setup.push(t.elapsed().as_secs_f64());
            built = Some((inp, engine));
        }
        let (inp, mut engine) = built.expect("at least one set-up");

        let store = engine.indexes()[0].store().clone();
        let oracle: Vec<f64> = inp
            .pool
            .iter()
            .map(|q| oracle_sum(&inp.objects, q))
            .collect();
        let mut checker = Checker::new(&inp.objects);
        let mut seg = Windows::default();
        let before = store.stats();
        let start = Instant::now();
        let mut passes = 0;
        while passes == 0 || start.elapsed().as_secs_f64() < budget {
            pass(
                &mut engine,
                &inp,
                &oracle,
                &mut checker,
                &mut report,
                None,
                start,
                &mut seg,
            );
            passes += 1;
        }
        let query_s = start.elapsed().as_secs_f64();
        let query_io = store.stats().since(&before);
        if query_io.total() != 0 {
            report.problem(format!(
                "warm queries did {} pager I/Os; the buffer must hold the index",
                query_io.total()
            ));
        }
        live_pages += store.live_pages();
        eprintln!(
            "query-warm segment {k}: {passes} passes of {} queries, {:.2} nodes per query, {} live pages, worst answer error {:.2}x the contract estimate",
            inp.pool.len(),
            (query_io.decode_hits + query_io.decode_misses) as f64 / seg.samples() as f64,
            store.live_pages(),
            checker.worst_vs_estimate()
        );
        if args.trace {
            last = Some((
                inp,
                oracle,
                checker,
                passes,
                query_s,
                seg.all(),
                store.live_pages(),
            ));
        }
        lat.append(seg);
    }
    if let Some((inp, oracle, mut checker, passes, query_s, plain_ns, pages)) = last {
        return traced(
            args,
            &inp,
            &oracle,
            &mut checker,
            report,
            passes,
            query_s,
            plain_ns,
            pages,
        );
    }

    let m = &mut report.metrics;
    m.put("setup_s", min(&setup), "s");
    m.put("insert_per_s", 1e9 / min(&bulk), "1/s");
    m.put("query_per_s", lat.best_rate(), "1/s");
    m.put("query_p50_us", lat.best_median() / 1e3, "us");
    m.put(
        "index_bytes_per_object",
        (live_pages * PAGE_SIZE as u64) as f64 / (segments * N) as f64,
        "B",
    );
    report
}

/// Rebuilds the index over a timing pager and repeats the untraced
/// phase's query passes under spans.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &RunArgs,
    inp: &Inputs,
    oracle: &[f64],
    checker: &mut Checker,
    mut report: Report,
    passes: usize,
    plain_s: f64,
    plain_ns: Vec<f64>,
    plain_pages: u64,
) -> Report {
    let tracer = Tracer::new();
    let counters = Arc::new(PagerCounters::default());
    let pager = TimingPager::new(
        Box::new(MemPager::new(PAGE_SIZE)),
        Arc::clone(&counters),
        Arc::clone(&tracer),
    );
    // `SharedStore::open` wraps a fresh `MemPager` the same way for a
    // memory store without WAL.
    let store = SharedStore::with_pager(Box::new(pager), &config());
    let mut engine = match bulk_load(&store, inp) {
        Ok(e) => e,
        Err(e) => {
            report.problem(format!("traced bulk load: {e}"));
            return report;
        }
    };
    warm_up(&mut engine, inp, &mut report);
    if store.live_pages() != plain_pages {
        report.problem("the traced bulk load differs from batree_bulk's");
    }
    let io_before = store.stats();
    let pager_before = counters.totals();
    let start = Instant::now();
    let mut lat = Windows::default();
    for _ in 0..passes {
        pass(
            &mut engine,
            inp,
            oracle,
            checker,
            &mut report,
            Some(&tracer),
            start,
            &mut lat,
        );
    }
    let traced_s = start.elapsed().as_secs_f64();
    let query_io = store.stats().since(&io_before);
    let layers = Layers {
        io: query_io,
        query_io,
        pager: counters.totals().since(&pager_before),
        spans: tracer.summary(),
        untraced_query_ns: plain_ns,
        threads: 1,
        checksum_ns_per_page: crate::common::checksum_ns_per_page(),
        overhead_frac: (traced_s - plain_s) / plain_s,
        ..Layers::default()
    };
    layers.check_identities(&mut report);
    layers.emit(&mut report.metrics);
    crate::write_trace(args, "query-warm", &tracer);
    report
}
