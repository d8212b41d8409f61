//! `ingest-spill`: dynamic BA-tree inserts of the paper's objects into a
//! memory-paged store whose LRU buffer holds about an eighth of the
//! final index, then a QBS-1% box-sum pass over the spilled index.
//!
//! Every insert walks four corner trees whose pages mostly miss the
//! buffer, so each costs tens of checksummed page reads and writes and
//! invalidates the decoded nodes it rewrites: the workload loads the
//! pager, checksums, buffer eviction and BA-tree insert, and gets almost
//! no decoded-node cache hits.

use std::sync::Arc;
use std::time::Instant;

use boxagg_batree::BATree;
use boxagg_common::geom::Rect;
use boxagg_core::engine::SimpleBoxSum;
use boxagg_pagestore::{Backing, IoStats, MemPager, SharedStore};
use boxagg_workload::{gen_objects, gen_queries, DatasetConfig};

use crate::common::{
    io_sum, oracle_sum, store_config, sub_seed, Checker, Layers, RunArgs, DIM, PAGE_SIZE,
};
use crate::stats::{min, Report, Windows};
use crate::trace::{PagerCounters, TimingPager, Tracer};

/// Objects inserted per round.
const N: usize = 5_000;
/// 44 pages of 8 KiB: about an eighth of the ~350-page final index.
const BUFFER_PAGES: usize = 44;
/// Box-sums in the pass over the spilled index, each checked.
const QUERIES: usize = 1_000;
const QBS: f64 = 0.01;
/// Set-ups timed per round; `setup_s` is the fastest of them all.
const SETUP_TIMINGS: usize = 3;

struct Inputs {
    space: Rect,
    objects: Vec<(Rect, f64)>,
    queries: Vec<Rect>,
}

fn inputs(seed: u64) -> Inputs {
    let cfg = DatasetConfig::paper(N, seed);
    Inputs {
        space: cfg.space(),
        objects: gen_objects(&cfg),
        queries: gen_queries(DIM, QUERIES, QBS, seed ^ 0x51EC_7ED5),
    }
}

/// What one round of inserts plus the query pass measured.
struct Round {
    insert_ns: Vec<f64>,
    query_ns: Vec<f64>,
    insert_s: f64,
    query_s: f64,
    insert_io: IoStats,
    query_io: IoStats,
    live_pages: u64,
}

fn round(
    store: &SharedStore,
    inp: &Inputs,
    oracle: &[f64],
    checker: &mut Checker,
    report: &mut Report,
    tracer: Option<&Tracer>,
) -> Round {
    let mut r = Round {
        insert_ns: Vec::with_capacity(N),
        query_ns: Vec::with_capacity(QUERIES),
        insert_s: 0.0,
        query_s: 0.0,
        insert_io: IoStats::default(),
        query_io: IoStats::default(),
        live_pages: 0,
    };
    let mut engine = match SimpleBoxSum::<BATree<f64>>::batree_in(inp.space, store.clone()) {
        Ok(e) => e,
        Err(e) => {
            report.problem(format!("create engine: {e}"));
            return r;
        }
    };
    let s0 = store.stats();
    let t0 = Instant::now();
    for (i, (rect, value)) in inp.objects.iter().enumerate() {
        let t = Instant::now();
        let res = match tracer {
            Some(tr) => tr.span("core.insert", i as u64 + 1, || engine.insert(rect, *value)),
            None => engine.insert(rect, *value),
        };
        r.insert_ns.push(t.elapsed().as_nanos() as f64);
        report.attempted += 1;
        if res.is_err() {
            report.failed += 1;
        }
    }
    r.insert_s = t0.elapsed().as_secs_f64();
    let s1 = store.stats();
    let t1 = Instant::now();
    for (j, q) in inp.queries.iter().enumerate() {
        let t = Instant::now();
        let res = match tracer {
            Some(tr) => tr.span("core.query", (N + j) as u64 + 1, || engine.query(q)),
            None => engine.query(q),
        };
        r.query_ns.push(t.elapsed().as_nanos() as f64);
        report.attempted += 1;
        match res {
            Ok(sum) => checker.check(report, "ingest-spill box-sum", sum, oracle[j]),
            Err(_) => report.failed += 1,
        }
    }
    r.query_s = t1.elapsed().as_secs_f64();
    let s2 = store.stats();
    r.insert_io = s1.since(&s0);
    r.query_io = s2.since(&s1);
    r.live_pages = store.live_pages();
    r
}

fn open_store() -> SharedStore {
    SharedStore::open(&store_config(BUFFER_PAGES, Backing::Memory, false))
        .expect("a memory store opens")
}

/// The oracle's answers to a round's queries, and the checker for them.
fn oracle(inp: &Inputs) -> (Vec<f64>, Checker) {
    let answers = inp
        .queries
        .iter()
        .map(|q| oracle_sum(&inp.objects, q))
        .collect();
    (answers, Checker::new(&inp.objects))
}

/// Rounds of (fresh store, `N` inserts, `QUERIES` box-sums), each over a
/// dataset of its own, until `--seconds` has passed. Set-up is the input
/// generation plus the store open of each round.
pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::new();
    if args.trace {
        return traced(args, report);
    }
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut setup = Vec::new();
    let mut worst: f64 = 0.0;
    while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let k = rounds.len();
        let mut set_up = || {
            let t = Instant::now();
            let inp = inputs(sub_seed(args.seed, k));
            let store = open_store();
            setup.push(t.elapsed().as_secs_f64());
            (inp, store)
        };
        // Set-up takes well under a millisecond: time it a few times.
        for _ in 1..SETUP_TIMINGS {
            drop(set_up());
        }
        let (inp, store) = set_up();
        let (oracle, mut checker) = oracle(&inp);
        rounds.push(round(
            &store,
            &inp,
            &oracle,
            &mut checker,
            &mut report,
            None,
        ));
        worst = worst.max(checker.worst_vs_estimate());
        if !report.correct {
            break;
        }
    }
    // Each round is a window: its own dataset, a few seconds long.
    let (mut inserts, mut queries) = (Windows::default(), Windows::default());
    for (k, r) in rounds.iter().enumerate() {
        r.insert_ns.iter().for_each(|&ns| inserts.push(k, ns));
        r.query_ns.iter().for_each(|&ns| queries.push(k, ns));
    }
    let live_pages: u64 = rounds.iter().map(|r| r.live_pages).sum();
    let insert_ios: u64 = rounds.iter().map(|r| r.insert_io.total()).sum();
    let query_ios: u64 = rounds.iter().map(|r| r.query_io.total()).sum();
    let m = &mut report.metrics;
    m.put("setup_s", min(&setup), "s");
    m.put("insert_per_s", inserts.best_rate(), "1/s");
    m.put("query_per_s", queries.best_rate(), "1/s");
    m.put("query_p50_us", queries.best_median() / 1e3, "us");
    m.put(
        "index_bytes_per_object",
        (live_pages * PAGE_SIZE as u64) as f64 / (rounds.len() * N) as f64,
        "B",
    );
    eprintln!(
        "ingest-spill: {} rounds, {:.3} I/Os per insert, {:.3} I/Os per query, {:.1} live pages per round, worst answer error {worst:.2}x the contract estimate",
        rounds.len(),
        insert_ios as f64 / (rounds.len() * N) as f64,
        query_ios as f64 / (rounds.len() * QUERIES) as f64,
        live_pages as f64 / rounds.len() as f64,
    );
    report
}

/// Untraced rounds for half the run, then the same rounds on stores
/// whose pager is wrapped in the timing pager, with spans around every
/// engine call.
fn traced(args: &RunArgs, mut report: Report) -> Report {
    let start = Instant::now();
    let mut plain = Vec::new();
    while plain.is_empty() || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        let inp = inputs(sub_seed(args.seed, plain.len()));
        let (oracle, mut checker) = oracle(&inp);
        plain.push(round(
            &open_store(),
            &inp,
            &oracle,
            &mut checker,
            &mut report,
            None,
        ));
    }

    let tracer = Tracer::new();
    let counters = Arc::new(PagerCounters::default());
    let mut layers = Layers {
        threads: 1,
        checksum_ns_per_page: crate::common::checksum_ns_per_page(),
        ..Layers::default()
    };
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for (k, p) in plain.iter().enumerate() {
        let inp = inputs(sub_seed(args.seed, k));
        let (oracle, mut checker) = oracle(&inp);
        let pager = TimingPager::new(
            Box::new(MemPager::new(PAGE_SIZE)),
            Arc::clone(&counters),
            Arc::clone(&tracer),
        );
        // `SharedStore::open` wraps a fresh `MemPager` the same way for
        // a memory store without WAL.
        let store = SharedStore::with_pager(
            Box::new(pager),
            &store_config(BUFFER_PAGES, Backing::Memory, false),
        );
        let before = store.stats();
        let t = round(
            &store,
            &inp,
            &oracle,
            &mut checker,
            &mut report,
            Some(&tracer),
        );
        if t.insert_io.total() != p.insert_io.total()
            || t.query_io.total() != p.query_io.total()
            || t.live_pages != p.live_pages
        {
            report.problem("the timing pager changed the I/O counts");
        }
        layers.io = io_sum(&layers.io, &store.stats().since(&before));
        layers.insert_io = io_sum(&layers.insert_io, &t.insert_io);
        layers.query_io = io_sum(&layers.query_io, &t.query_io);
        plain_s += p.insert_s + p.query_s;
        traced_s += t.insert_s + t.query_s;
    }
    for p in plain {
        layers.untraced_insert_ns.extend(p.insert_ns);
        layers.untraced_query_ns.extend(p.query_ns);
    }
    layers.pager = counters.totals();
    layers.spans = tracer.summary();
    layers.overhead_frac = (traced_s - plain_s) / plain_s;
    layers.check_identities(&mut report);
    layers.emit(&mut report.metrics);
    crate::write_trace(args, "ingest-spill", &tracer);
    report
}
