//! Result assembly: every metric with its unit, time base and sample
//! count on a human line, then the one-line JSON result.

use crate::probe::Fingerprint;
use crate::stats::Accounting;

/// What a metric's time is counted in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// Wall-clock time on this machine (measured; varies run to run).
    Host,
    /// Virtual time of the simulated machine (modelled; a function of
    /// the seed alone).
    Simulated,
    /// Simulated seconds per host second.
    SimPerHost,
    /// A count or ratio with no time in it.
    None,
}

impl Base {
    fn label(self) -> &'static str {
        match self {
            Base::Host => "host",
            Base::Simulated => "simulated",
            Base::SimPerHost => "simulated/host",
            Base::None => "-",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Time base.
    pub base: Base,
    /// Samples the value was read from, where it is a statistic.
    pub n: Option<u64>,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Attempts and failures across the run.
    pub acct: Accounting,
    /// Failed checks; any entry makes the result incorrect.
    pub problems: Vec<String>,
    /// Free-form context lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, base: Base) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            base,
            n: None,
        });
    }

    /// Adds a metric read from `n` samples.
    pub fn put_n(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        base: Base,
        n: u64,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            base,
            n: Some(n),
        });
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Adds a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// True when every check passed and no value is non-finite.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
            && self.acct.balanced()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the human lines and, last, the JSON result line.
    pub fn print(&self, workload: &str, seed: u64, trace: bool, fp: &Fingerprint) {
        println!(
            "fingerprint nproc={} cpu=\"{}\" clocksource={} clock_read_ns={:.2} empty_span_ns={:.1} seed={seed} workload={workload} trace={}",
            fp.nproc,
            fp.cpu_model,
            fp.clocksource,
            fp.clock.read_ns,
            fp.clock.empty_span_ns,
            u8::from(trace)
        );
        for line in &self.notes {
            println!("note {line}");
        }
        for m in &self.metrics {
            let n = m.n.map_or(String::new(), |n| format!(" n={n}"));
            println!(
                "metric {:<28} {:>16.6} {:<6} base={}{n}",
                m.name,
                m.value,
                m.unit,
                m.base.label()
            );
        }
        println!(
            "accounting attempted={} completed={} failed={} failed_frac={}",
            self.acct.sent,
            self.acct.completed,
            self.acct.failed,
            self.acct.failed_frac()
        );
        for p in &self.problems {
            println!("FAILED CHECK: {p}");
        }
        println!("{}", self.json());
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.acct.sent.max(1),
            self.acct.failed,
            metrics.join(", ")
        )
    }
}

/// A finite f64 as JSON (non-finite values, already flagged incorrect,
/// print as 0 so the line stays parseable).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}
