//! Pieces every workload shares: the store configuration of the paper's
//! §6 setting, the brute-force answer oracle, and the per-layer metric
//! set of a traced run.

use std::collections::HashMap;
use std::path::PathBuf;

use boxagg_common::geom::Rect;
use boxagg_pagestore::{Backing, IoStats, StoreConfig};
use boxagg_serve::ServeStats;

use crate::stats::{percentile, Metrics, Report};
use crate::trace::PagerTotals;

/// Page size of the paper's experiments (§6).
pub const PAGE_SIZE: usize = 8192;

/// Dimensionality of the paper's datasets.
pub const DIM: usize = 2;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub work_dir: PathBuf,
}

/// The seed of the `k`-th dataset of a run. A run spreads its
/// repetitions over several datasets drawn from its seed, so its
/// figures do not hinge on the shape of one tree.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    let mut rng = boxagg_common::rng::StdRng::seed_from_u64(seed);
    (0..k).for_each(|_| {
        rng.next_u64();
    });
    rng.next_u64()
}

/// The §6 store setting: 8 KiB pages, checksums verified, sequential
/// corner fan-out, and a decoded-node cache as large as the buffer.
pub fn store_config(buffer_pages: usize, backing: Backing, wal: bool) -> StoreConfig {
    StoreConfig {
        page_size: PAGE_SIZE,
        buffer_pages,
        backing,
        parallelism: 1,
        node_cache_pages: buffer_pages,
        checksums: true,
        wal,
    }
}

/// Brute-force box-sum over the object list, with compensated
/// (Neumaier) summation so the reference itself carries no rounding
/// error worth the name. Shares no code with the trees.
pub fn oracle_sum(objects: &[(Rect, f64)], q: &Rect) -> f64 {
    let (mut sum, mut comp) = (0.0f64, 0.0f64);
    for (r, v) in objects {
        if r.intersects(q) {
            let t = sum + v;
            comp += if sum.abs() >= v.abs() {
                (sum - t) + v
            } else {
                (v - t) + sum
            };
            sum = t;
        }
    }
    sum + comp
}

/// Compares answers with the oracle. The corner reduction returns a
/// signed sum of `2^d` dominance sums, so its rounding error scales with
/// the prefix totals, not with the box answer: the contract's estimate
/// is `2^d · n · ε · max|v|`. Correct answers exceed that estimate by a
/// small factor (each stored aggregate is itself accumulated over up to
/// `n` inserts along a tree path), so the check allows `⌈log2 n⌉` times
/// it and reports the worst error as a multiple of the estimate. A lost
/// or doubled object moves an answer by at least its value (≥ 1 here),
/// many orders of magnitude above either.
#[derive(Debug)]
pub struct Checker {
    /// `2^d · n · ε · max|v|`.
    estimate: f64,
    bound: f64,
    pub checked: u64,
    pub worst: f64,
}

impl Checker {
    pub fn new(objects: &[(Rect, f64)]) -> Self {
        let max_abs = objects.iter().map(|(_, v)| v.abs()).fold(0.0, f64::max);
        let n = objects.len().max(2);
        let estimate = (1u64 << DIM) as f64 * n as f64 * f64::EPSILON * max_abs;
        Self {
            estimate,
            bound: estimate * (n as f64).log2().ceil(),
            checked: 0,
            worst: 0.0,
        }
    }

    /// The worst error seen, as a multiple of the contract's estimate.
    pub fn worst_vs_estimate(&self) -> f64 {
        self.worst / self.estimate
    }

    pub fn check(&mut self, report: &mut Report, what: &str, got: f64, want: f64) {
        self.checked += 1;
        let err = (got - want).abs();
        self.worst = self.worst.max(err);
        if err.is_nan() || err > self.bound {
            report.problem(format!(
                "{what}: answer {got} differs from the oracle's {want} by {err:e} \
                 (bound {:e})",
                self.bound
            ));
        }
    }
}

/// Counter-wise sum of two store statistics (high-water marks add too,
/// which no caller reads).
pub fn io_sum(a: &IoStats, b: &IoStats) -> IoStats {
    IoStats {
        reads: a.reads + b.reads,
        writes: a.writes + b.writes,
        hits: a.hits + b.hits,
        decode_hits: a.decode_hits + b.decode_hits,
        decode_misses: a.decode_misses + b.decode_misses,
        decode_invalidations: a.decode_invalidations + b.decode_invalidations,
        wal_appends: a.wal_appends + b.wal_appends,
        wal_syncs: a.wal_syncs + b.wal_syncs,
        wal_replays: a.wal_replays + b.wal_replays,
        syncs: a.syncs + b.syncs,
        dirty_high_water: a.dirty_high_water + b.dirty_high_water,
    }
}

/// Counter-wise `after - before` of the server statistics.
pub fn serve_delta(after: &ServeStats, before: &ServeStats) -> ServeStats {
    ServeStats {
        queries: after.queries - before.queries,
        groups: after.groups - before.groups,
        node_accesses: after.node_accesses - before.node_accesses,
        node_decodes: after.node_decodes - before.node_decodes,
        commits: after.commits - before.commits,
        commit_rounds: after.commit_rounds - before.commit_rounds,
        protocol_errors: after.protocol_errors - before.protocol_errors,
        shed: after.shed - before.shed,
        expired: after.expired - before.expired,
        replays: after.replays - before.replays,
        refused_conns: after.refused_conns - before.refused_conns,
        validate_ok: after.validate_ok,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Everything a traced run measured over its traced phase. Workloads
/// leave the parts that do not apply to them at zero; every per-layer
/// metric is printed by every workload.
#[derive(Debug, Default)]
pub struct Layers {
    /// Store statistics over the traced phase.
    pub io: IoStats,
    /// Store statistics over the traced phase's inserts / queries.
    pub insert_io: IoStats,
    pub query_io: IoStats,
    /// Pager-side counts and busy time over the traced phase.
    pub pager: PagerTotals,
    /// Span summary: name → (calls, total ns, self ns).
    pub spans: HashMap<&'static str, (u64, u64, u64)>,
    pub serve: Option<ServeStats>,
    /// Latency samples (ns) of the untraced part of the run, whose tails
    /// are too unsteady from run to run to bound as end-to-end metrics.
    pub untraced_insert_ns: Vec<f64>,
    pub untraced_query_ns: Vec<f64>,
    pub untraced_commit_ns: Vec<f64>,
    pub lag_p99_ms: f64,
    pub threads: u64,
    pub connections: u64,
    /// Measured cost of checksumming one page.
    pub checksum_ns_per_page: f64,
    pub overhead_frac: f64,
}

impl Layers {
    fn span(&self, name: &str) -> (u64, u64, u64) {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Asserts the accounting identities that tie the layers' counters
    /// to one another; each violation marks the run incorrect.
    pub fn check_identities(&self, report: &mut Report) {
        let io = &self.io;
        let p = &self.pager;
        // Every buffer miss is one pager read and every write-back one
        // pager write. The pool also reads, uncounted and unverified,
        // the pre-images a commit retains for pinned snapshots.
        if io.reads + p.preimage_reads != p.reads || io.writes != p.writes {
            report.problem(format!(
                "buffer misses {} + commit pre-image reads {} / write-backs {} \
                 != pager reads / writes {} / {}",
                io.reads, p.preimage_reads, io.writes, p.reads, p.writes
            ));
        }
        // Checksums: every other page crossing the pager is verified on
        // read or stamped on write.
        let pages = io.reads + io.writes;
        if pages != p.reads + p.writes - p.preimage_reads {
            report.problem(format!(
                "checksum pages {pages} != pager reads + writes {} - pre-image reads {}",
                p.reads + p.writes,
                p.preimage_reads
            ));
        }
        // A query touches the buffer once per node it reads: buffer
        // hits + misses == decoded-node hits + misses (node accesses).
        let q = &self.query_io;
        if q.hits + q.reads != q.decode_hits + q.decode_misses {
            report.problem(format!(
                "query buffer accesses {} != node accesses {}",
                q.hits + q.reads,
                q.decode_hits + q.decode_misses
            ));
        }
        if let Some(s) = &self.serve {
            if s.groups > s.queries {
                report.problem(format!("serve groups {} > queries {}", s.groups, s.queries));
            }
            if s.commit_rounds > s.commits {
                report.problem(format!(
                    "serve commit rounds {} > commits {}",
                    s.commit_rounds, s.commits
                ));
            }
            if s.node_decodes > s.node_accesses {
                report.problem(format!(
                    "serve decodes {} > node accesses {}",
                    s.node_decodes, s.node_accesses
                ));
            }
        }
    }

    /// Appends every per-layer metric to `m`.
    pub fn emit(&self, m: &mut Metrics) {
        let p = &self.pager;
        for (name, v) in [
            ("reads", p.reads),
            ("writes", p.writes),
            ("syncs", p.syncs),
            ("wal_appends", p.wal_appends),
            ("wal_syncs", p.wal_syncs),
        ] {
            m.put(format!("pagestore.pager.{name}"), v as f64, "count");
        }
        for (name, v) in [
            ("read_ns", p.read_ns),
            ("write_ns", p.write_ns),
            ("sync_ns", p.sync_ns),
            ("wal_append_ns", p.wal_append_ns),
            ("wal_sync_ns", p.wal_sync_ns),
        ] {
            m.put(format!("pagestore.pager.{name}"), v as f64, "ns");
        }
        m.put("pagestore.pager.wal_bytes", p.wal_bytes as f64, "B");
        m.put(
            "pagestore.pager.preimage_reads",
            p.preimage_reads as f64,
            "count",
        );

        let io = &self.io;
        let pages = io.reads + io.writes;
        m.put("pagestore.checksum.pages", pages as f64, "count");
        m.put(
            "pagestore.checksum.bytes",
            (pages * PAGE_SIZE as u64) as f64,
            "B",
        );
        m.put(
            "pagestore.checksum.ns_per_page",
            self.checksum_ns_per_page,
            "ns",
        );
        m.put(
            "pagestore.checksum.est_ns",
            pages as f64 * self.checksum_ns_per_page,
            "ns",
        );

        m.put("pagestore.buffer.hits", io.hits as f64, "count");
        m.put("pagestore.buffer.misses", io.reads as f64, "count");
        m.put(
            "pagestore.buffer.hit_ratio",
            ratio(io.hits, io.hits + io.reads),
            "ratio",
        );
        m.put("pagestore.nodecache.hits", io.decode_hits as f64, "count");
        m.put(
            "pagestore.nodecache.misses",
            io.decode_misses as f64,
            "count",
        );
        m.put(
            "pagestore.nodecache.invalidations",
            io.decode_invalidations as f64,
            "count",
        );
        m.put(
            "pagestore.nodecache.hit_ratio",
            ratio(io.decode_hits, io.decode_hits + io.decode_misses),
            "ratio",
        );

        for (layer, io) in [("insert", &self.insert_io), ("query", &self.query_io)] {
            let (calls, total, own) = self.span(&format!("core.{layer}"));
            m.put(format!("core.{layer}.calls"), calls as f64, "count");
            m.put(format!("core.{layer}.ns"), total as f64, "ns");
            m.put(format!("core.{layer}.self_ns"), own as f64, "ns");
            m.put(
                format!("core.{layer}.ios_per_call"),
                ratio(io.total(), calls),
                "I/O",
            );
            if layer == "query" {
                m.put(
                    "core.query.nodes_per_query",
                    ratio(io.decode_hits + io.decode_misses, calls),
                    "nodes",
                );
            }
        }

        let s = self.serve.unwrap_or_default();
        for (name, v) in [
            ("queries", s.queries),
            ("groups", s.groups),
            ("commits", s.commits),
            ("commit_rounds", s.commit_rounds),
            ("shed", s.shed),
            ("expired", s.expired),
            ("protocol_errors", s.protocol_errors),
            ("refused_conns", s.refused_conns),
        ] {
            m.put(format!("serve.{name}"), v as f64, "count");
        }
        m.put("serve.batch_size", ratio(s.queries, s.groups), "queries");
        m.put(
            "serve.node_accesses_per_query",
            ratio(s.node_accesses, s.queries),
            "nodes",
        );
        m.put(
            "serve.decodes_per_query",
            ratio(s.node_decodes, s.queries),
            "nodes",
        );
        m.put(
            "serve.decode_ratio",
            ratio(s.node_decodes, s.node_accesses),
            "ratio",
        );
        m.put(
            "serve.commits_per_round",
            ratio(s.commits, s.commit_rounds),
            "commits",
        );
        for op in ["box_sum", "insert", "commit"] {
            let (_, total, _) = self.span(&format!("serve.client.{op}"));
            m.put(format!("serve.client.{op}_ns"), total as f64, "ns");
        }

        for (name, samples, p, scale, unit) in [
            ("insert_p50_us", &self.untraced_insert_ns, 50.0, 1e3, "us"),
            ("insert_p99_us", &self.untraced_insert_ns, 99.0, 1e3, "us"),
            ("query_p99_us", &self.untraced_query_ns, 99.0, 1e3, "us"),
            ("commit_p50_ms", &self.untraced_commit_ns, 50.0, 1e6, "ms"),
            ("commit_p95_ms", &self.untraced_commit_ns, 95.0, 1e6, "ms"),
        ] {
            let v = if samples.is_empty() {
                0.0
            } else {
                percentile(&mut samples.clone(), p) / scale
            };
            m.put(format!("untraced.{name}"), v, unit);
        }
        m.put("loadgen.lag_p99_ms", self.lag_p99_ms, "ms");
        m.put("loadgen.threads", self.threads as f64, "count");
        m.put("loadgen.connections", self.connections as f64, "count");
        m.put("trace.overhead_frac", self.overhead_frac, "ratio");
    }
}

/// Nanoseconds to checksum one page with the store's page checksum
/// (`checksum::stamp` and `checksum::verify` over an 8 KiB page), the
/// median of several timed batches.
pub fn checksum_ns_per_page() -> f64 {
    use boxagg_pagestore::checksum;
    let mut page = vec![0u8; PAGE_SIZE];
    for (i, b) in page.iter_mut().enumerate() {
        *b = (i * 31 % 251) as u8;
    }
    let mask = checksum::zero_mask(PAGE_SIZE - checksum::TRAILER);
    const BATCH: usize = 200;
    let mut per_page: Vec<f64> = (0..9)
        .map(|_| {
            let t = std::time::Instant::now();
            for _ in 0..BATCH {
                checksum::stamp(std::hint::black_box(&mut page), mask);
                assert!(checksum::verify(std::hint::black_box(&page), mask).is_ok());
            }
            // Each iteration hashes the page twice (stamp + verify).
            t.elapsed().as_nanos() as f64 / (2 * BATCH) as f64
        })
        .collect();
    crate::stats::median(&mut per_page)
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_common::geom::Point;

    fn rect(l: [f64; 2], h: [f64; 2]) -> Rect {
        Rect::new(Point::new(&l), Point::new(&h))
    }

    #[test]
    fn oracle_sums_closed_intersections_and_checker_flags_lost_objects() {
        let objects = vec![
            (rect([0.0, 0.0], [0.1, 0.1]), 2.0),
            (rect([0.5, 0.5], [0.6, 0.6]), 3.0),
        ];
        // Touching the first object's corner counts (closed boxes).
        assert_eq!(oracle_sum(&objects, &rect([0.1, 0.1], [0.5, 0.5])), 5.0);
        assert_eq!(oracle_sum(&objects, &rect([0.2, 0.2], [0.3, 0.3])), 0.0);
        let mut checker = Checker::new(&objects);
        let mut report = Report::new();
        checker.check(&mut report, "exact", 5.0, 5.0);
        assert!(report.correct);
        checker.check(&mut report, "lost", 2.0, 5.0);
        assert!(!report.correct);
        assert_eq!(checker.checked, 2);
    }

    #[test]
    fn identities_account_for_commit_preimage_reads() {
        let mut layers = Layers::default();
        layers.io.reads = 5;
        layers.io.writes = 7;
        layers.pager.reads = 6;
        layers.pager.writes = 7;
        let mut report = Report::new();
        layers.check_identities(&mut report);
        assert!(!report.correct, "an uncounted pager read must be flagged");
        layers.pager.preimage_reads = 1;
        let mut report = Report::new();
        layers.check_identities(&mut report);
        assert!(report.correct, "{:?}", report.problems);
        layers.serve = Some(ServeStats {
            queries: 1,
            groups: 2,
            ..ServeStats::default()
        });
        layers.check_identities(&mut report);
        assert!(!report.correct);
    }
}
