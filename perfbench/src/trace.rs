//! The traced run's instruments: an in-memory span recorder and a
//! timing [`Pager`] wrapper.
//!
//! Both live in the benchmark, outside the program: spans are recorded
//! around calls into the program's public API (engine inserts and
//! queries, client requests), and the pager wrapper times every page and
//! log operation the buffer pool issues. A pager span's parent is the
//! benchmark span open on the calling thread, so a span's *self* time is
//! its duration minus the pager time it caused. Pager operations issued
//! by server threads have no parent.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use boxagg_common::error::Result;
use boxagg_pagestore::wal::WalFile;
use boxagg_pagestore::{PageId, Pager};

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread, 0 for none.
    pub parent: u64,
    /// Request the span belongs to, 0 for none.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    /// `(span id, request id)` of the span open on this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Keeps spans in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Runs `f` inside a span named `name` for request `req`.
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outer = CURRENT.with(|c| c.replace((id, req)));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(outer));
        self.push(Span {
            id,
            parent: outer.0,
            req,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a leaf span for work that just ran from `start` to now,
    /// under whatever span is open on this thread.
    fn leaf(&self, name: &'static str, start: Instant) -> u64 {
        let end_ns = self.now_ns();
        let dur = start.elapsed().as_nanos() as u64;
        let (parent, req) = CURRENT.with(Cell::get);
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            req,
            name,
            start_ns: end_ns.saturating_sub(dur),
            end_ns,
        });
        dur
    }

    /// Per-name totals: `(calls, total ns, self ns)`, where self time is
    /// the span's duration minus that of its direct children.
    pub fn summary(&self) -> HashMap<&'static str, (u64, u64, u64)> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += own;
        }
        out
    }

    /// Writes every span as one CSV row: `id,parent,req,name,start_ns,end_ns`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,req,name,start_ns,end_ns")?;
        for s in spans.iter() {
            writeln!(
                w,
                "{},{},{},{},{},{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Counts and busy time of every pager operation.
#[derive(Debug, Default)]
pub struct PagerCounters {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub syncs: AtomicU64,
    pub wal_appends: AtomicU64,
    pub wal_syncs: AtomicU64,
    pub read_ns: AtomicU64,
    pub write_ns: AtomicU64,
    pub sync_ns: AtomicU64,
    pub wal_append_ns: AtomicU64,
    pub wal_sync_ns: AtomicU64,
    pub wal_bytes: AtomicU64,
    /// Reads a committing thread made between its log sync and its data
    /// sync: the pre-images a commit retains for pinned snapshots.
    pub preimage_reads: AtomicU64,
    /// The thread inside a commit's flip/apply window, if any.
    committing: Mutex<Option<ThreadId>>,
}

/// Plain copy of [`PagerCounters`].
#[derive(Debug, Default, Clone, Copy)]
pub struct PagerTotals {
    pub reads: u64,
    pub writes: u64,
    pub syncs: u64,
    pub wal_appends: u64,
    pub wal_syncs: u64,
    pub read_ns: u64,
    pub write_ns: u64,
    pub sync_ns: u64,
    pub wal_append_ns: u64,
    pub wal_sync_ns: u64,
    pub wal_bytes: u64,
    pub preimage_reads: u64,
}

impl PagerCounters {
    /// A log sync opens the commit window on the syncing thread, unless
    /// it is the sync that follows the log truncation ending a commit.
    fn wal_synced(&self, after_truncate: bool) {
        *self.committing.lock().expect("commit window poisoned") =
            (!after_truncate).then(|| std::thread::current().id());
    }

    /// The data sync of the apply phase (or a log truncation) closes it.
    fn close_window(&self) {
        *self.committing.lock().expect("commit window poisoned") = None;
    }

    fn note_read(&self) {
        let me = std::thread::current().id();
        if *self.committing.lock().expect("commit window poisoned") == Some(me) {
            self.preimage_reads.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn totals(&self) -> PagerTotals {
        let l = |a: &AtomicU64| a.load(Ordering::Relaxed);
        PagerTotals {
            reads: l(&self.reads),
            writes: l(&self.writes),
            syncs: l(&self.syncs),
            wal_appends: l(&self.wal_appends),
            wal_syncs: l(&self.wal_syncs),
            read_ns: l(&self.read_ns),
            write_ns: l(&self.write_ns),
            sync_ns: l(&self.sync_ns),
            wal_append_ns: l(&self.wal_append_ns),
            wal_sync_ns: l(&self.wal_sync_ns),
            wal_bytes: l(&self.wal_bytes),
            preimage_reads: l(&self.preimage_reads),
        }
    }
}

impl PagerTotals {
    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, e: &PagerTotals) -> PagerTotals {
        PagerTotals {
            reads: self.reads - e.reads,
            writes: self.writes - e.writes,
            syncs: self.syncs - e.syncs,
            wal_appends: self.wal_appends - e.wal_appends,
            wal_syncs: self.wal_syncs - e.wal_syncs,
            read_ns: self.read_ns - e.read_ns,
            write_ns: self.write_ns - e.write_ns,
            sync_ns: self.sync_ns - e.sync_ns,
            wal_append_ns: self.wal_append_ns - e.wal_append_ns,
            wal_sync_ns: self.wal_sync_ns - e.wal_sync_ns,
            wal_bytes: self.wal_bytes - e.wal_bytes,
            preimage_reads: self.preimage_reads - e.preimage_reads,
        }
    }
}

/// Shared state of a [`TimingPager`] and the [`TimingWal`] split off it.
#[derive(Debug, Clone)]
struct Probe {
    counters: Arc<PagerCounters>,
    tracer: Arc<Tracer>,
}

impl Probe {
    fn time<T>(
        &self,
        name: &'static str,
        count: &AtomicU64,
        ns: &AtomicU64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let dur = self.tracer.leaf(name, start);
        count.fetch_add(1, Ordering::Relaxed);
        ns.fetch_add(dur, Ordering::Relaxed);
        out
    }
}

/// A [`Pager`] that times and counts every operation of the pager it
/// wraps, recording each as a span.
pub struct TimingPager {
    inner: Box<dyn Pager>,
    probe: Probe,
    /// The log was just truncated: its next sync ends a commit.
    truncated: bool,
}

impl TimingPager {
    pub fn new(inner: Box<dyn Pager>, counters: Arc<PagerCounters>, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            probe: Probe { counters, tracer },
            truncated: false,
        }
    }
}

impl Pager for TimingPager {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn allocate(&mut self) -> Result<PageId> {
        self.inner.allocate()
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let c = Arc::clone(&self.probe.counters);
        c.note_read();
        let inner = &mut self.inner;
        self.probe
            .time("pagestore.pager.read", &c.reads, &c.read_ns, || {
                inner.read_page(id, buf)
            })
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<()> {
        let c = Arc::clone(&self.probe.counters);
        let inner = &mut self.inner;
        self.probe
            .time("pagestore.pager.write", &c.writes, &c.write_ns, || {
                inner.write_page(id, data)
            })
    }

    fn sync(&mut self) -> Result<()> {
        let c = Arc::clone(&self.probe.counters);
        let inner = &mut self.inner;
        let out = self
            .probe
            .time("pagestore.pager.sync", &c.syncs, &c.sync_ns, || {
                inner.sync()
            });
        c.close_window();
        out
    }

    fn wal_append(&mut self, bytes: &[u8]) -> Result<()> {
        let c = Arc::clone(&self.probe.counters);
        c.wal_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let inner = &mut self.inner;
        self.probe.time(
            "pagestore.wal.append",
            &c.wal_appends,
            &c.wal_append_ns,
            || inner.wal_append(bytes),
        )
    }

    fn wal_sync(&mut self) -> Result<()> {
        let c = Arc::clone(&self.probe.counters);
        let inner = &mut self.inner;
        let out = self
            .probe
            .time("pagestore.wal.sync", &c.wal_syncs, &c.wal_sync_ns, || {
                inner.wal_sync()
            });
        c.wal_synced(std::mem::take(&mut self.truncated));
        out
    }

    fn wal_len(&mut self) -> Result<u64> {
        self.inner.wal_len()
    }

    fn wal_rollback(&mut self, len: u64) -> Result<()> {
        self.inner.wal_rollback(len)
    }

    fn wal_truncate(&mut self) -> Result<()> {
        self.probe.counters.close_window();
        self.truncated = true;
        self.inner.wal_truncate()
    }

    fn wal_read(&mut self) -> Result<Vec<u8>> {
        self.inner.wal_read()
    }

    fn split_wal(&mut self) -> Option<Box<dyn WalFile>> {
        let inner = self.inner.split_wal()?;
        Some(Box::new(TimingWal {
            inner,
            probe: self.probe.clone(),
            truncated: false,
        }))
    }
}

/// The log handle split off a [`TimingPager`]: commits append and sync
/// through it, so it shares the pager's counters.
struct TimingWal {
    inner: Box<dyn WalFile>,
    probe: Probe,
    truncated: bool,
}

impl WalFile for TimingWal {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        let c = Arc::clone(&self.probe.counters);
        c.wal_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let inner = &mut self.inner;
        self.probe.time(
            "pagestore.wal.append",
            &c.wal_appends,
            &c.wal_append_ns,
            || inner.append(bytes),
        )
    }

    fn sync(&mut self) -> Result<()> {
        let c = Arc::clone(&self.probe.counters);
        let inner = &mut self.inner;
        let out = self
            .probe
            .time("pagestore.wal.sync", &c.wal_syncs, &c.wal_sync_ns, || {
                inner.sync()
            });
        c.wal_synced(std::mem::take(&mut self.truncated));
        out
    }

    fn len(&mut self) -> Result<u64> {
        self.inner.len()
    }

    fn rollback(&mut self, len: u64) -> Result<()> {
        self.inner.rollback(len)
    }

    fn truncate(&mut self) -> Result<()> {
        self.probe.counters.close_window();
        self.truncated = true;
        self.inner.truncate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_pagestore::MemPager;

    #[test]
    fn pager_spans_nest_under_the_open_span() {
        let tracer = Tracer::new();
        let counters = Arc::new(PagerCounters::default());
        let mut pager = TimingPager::new(
            Box::new(MemPager::new(64)),
            Arc::clone(&counters),
            Arc::clone(&tracer),
        );
        let id = pager.allocate().unwrap();
        tracer.span("core.insert", 7, || {
            pager.write_page(id, &[1; 64]).unwrap();
            let mut buf = [0u8; 64];
            pager.read_page(id, &mut buf).unwrap();
        });
        let mut wal = pager.split_wal().expect("memory pager splits its log");
        wal.append(&[0; 10]).unwrap();
        let t = counters.totals();
        assert_eq!(
            (t.reads, t.writes, t.wal_appends, t.wal_bytes),
            (1, 1, 1, 10)
        );
        let sum = tracer.summary();
        let (calls, total, own) = sum["core.insert"];
        assert_eq!(calls, 1);
        let pager_ns = sum["pagestore.pager.read"].1 + sum["pagestore.pager.write"].1;
        assert_eq!(own + pager_ns, total);
        let spans = tracer.spans.lock().unwrap();
        let parent = spans.iter().find(|s| s.name == "core.insert").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name.starts_with("pagestore.pager"))
            .all(|s| s.parent == parent.id && s.req == 7));
        assert_eq!(
            spans
                .iter()
                .find(|s| s.name == "pagestore.wal.append")
                .unwrap()
                .parent,
            0
        );
    }
}
