//! Sample summaries, the result line, and process memory.

use std::fmt::Write as _;

/// Nearest-rank percentile of `samples` (`p` in `[0, 100]`); sorts in
/// place. Panics on an empty sample: every caller measures at least one
/// operation before summarising.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (sorts in place).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Smallest of `samples` (the least-disturbed repetition of a timing).
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Length of the windows a measured phase is split into.
pub const WINDOW_S: f64 = 1.0;

/// Latency samples (ns) grouped into consecutive windows of the measured
/// phase: by time for a continuous loop, one window per round otherwise.
///
/// The machines this runs on share their cores, and their speed swings
/// by a third within seconds: 1 s windows of one identical warm query
/// loop ranged from 11.3 to 19.3 us median over 100 s, while the fastest
/// window of every 30 s stretch stayed within 11.3-11.8 us. Interference
/// only ever slows a window, while a slower program slows every window,
/// so timing metrics are read from the least-disturbed window: the lowest
/// window median and the highest window rate.
#[derive(Debug, Default)]
pub struct Windows(Vec<Vec<f64>>);

impl Windows {
    /// Adds a sample to window `w`.
    pub fn push(&mut self, w: usize, ns: f64) {
        if self.0.len() <= w {
            self.0.resize_with(w + 1, Vec::new);
        }
        self.0[w].push(ns);
    }

    /// Adds a whole window of samples after the existing ones.
    pub fn push_window(&mut self, samples: Vec<f64>) {
        self.0.push(samples);
    }

    /// Adds a sample to the time window holding `at_s` seconds.
    pub fn push_at(&mut self, at_s: f64, ns: f64) {
        self.push((at_s / WINDOW_S) as usize, ns);
    }

    /// Appends `other`'s windows after this one's.
    pub fn append(&mut self, other: Windows) {
        self.0.extend(other.0);
    }

    /// Windows holding at least half as many samples as the fullest one
    /// (a run's last, partial window is left out).
    fn full(&self) -> impl Iterator<Item = &Vec<f64>> {
        let most = self.0.iter().map(Vec::len).max().unwrap_or(0);
        self.0
            .iter()
            .filter(move |w| !w.is_empty() && 2 * w.len() >= most)
    }

    pub fn samples(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    /// The lowest window median, in ns.
    pub fn best_median(&self) -> f64 {
        self.full()
            .map(|w| median(&mut w.clone()))
            .fold(f64::INFINITY, f64::min)
    }

    /// The highest window rate, in operations per second of operation
    /// time.
    pub fn best_rate(&self) -> f64 {
        self.full()
            .map(|w| w.len() as f64 * 1e9 / w.iter().sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// All samples, in window order.
    pub fn all(&self) -> Vec<f64> {
        self.0.concat()
    }
}

/// Checks that a tail percentile has at least ten samples beyond it.
pub fn require_tail(what: &str, samples: usize, p: f64) -> Result<(), String> {
    let beyond = samples as f64 * (1.0 - p / 100.0);
    if beyond < 10.0 {
        return Err(format!(
            "{what}: {samples} samples leave {beyond:.1} beyond p{p}; at least 10 are needed"
        ));
    }
    Ok(())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric list.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every checked answer was within its bound and every accounting
    /// identity held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Why `correct` is false, for the human-readable summary.
    pub problems: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Records a failed check; the run then reports `correct: false`.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.correct = false;
        self.problems.push(what.into());
    }

    /// The single-line JSON result the benchmark prints last.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        )
        .expect("write to String");
        for (i, m) in self.metrics.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
            .expect("write to String");
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number with all its digits (non-finite values, which
/// JSON cannot carry, become 0).
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut [7.0], 99.0), 7.0);
    }

    #[test]
    fn windows_report_the_least_disturbed_one() {
        let mut w = Windows::default();
        for i in 0..10 {
            w.push(0, 30.0 + f64::from(i));
            w.push(1, 20.0 + f64::from(i));
        }
        w.push(2, 1.0); // a partial last window is left out
        assert_eq!(w.samples(), 21);
        assert_eq!(w.best_median(), 24.0);
        assert_eq!(w.best_rate(), 10.0 * 1e9 / 245.0);
        w.push_at(2.5 * WINDOW_S, 5.0);
        assert_eq!(w.all().len(), 22);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        assert!(require_tail("x", 1000, 99.0).is_ok());
        assert!(require_tail("x", 999, 99.0).is_err());
        assert!(require_tail("x", 200, 95.0).is_ok());
    }

    #[test]
    fn result_line_shape() {
        let mut r = Report::new();
        r.attempted = 3;
        r.metrics.put("setup_s", 0.5, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
