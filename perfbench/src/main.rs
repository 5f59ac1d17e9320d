//! `perfbench` — the lacnet benchmark.
//!
//! ```text
//! perfbench --workload batch|serve-hot|serve-ndt --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds every input from `--seed`, measures for `--seconds`, checks
//! every output, and prints the metrics as a table followed by one JSON
//! line: with `--trace 0` the end-to-end metrics, with `--trace 1` the
//! per-layer table of a traced run, whose spans are also written to
//! `.perfbench_run/trace/`. Exits 1 when any output was wrong, 2 on a
//! usage error. See `README.md` beside this crate.

mod batch;
mod client;
mod layers;
mod pipeline;
mod serve;
mod streams;
mod trace;
mod util;

use lacnet_types::json::Json;
use std::time::Duration;

/// One run's parameters and work directory.
pub struct Run {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub work: util::WorkDir,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a workload run hands back: every checked operation, the
/// metrics, notes for the text report and, traced, the spans.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    pub trace: Option<trace::Tracer>,
}

impl Outcome {
    /// Count one checked operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

const USAGE: &str =
    "usage: perfbench --workload batch|serve-hot|serve-ndt --seed N --seconds S --trace 0|1";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        if let Err(e) = pipeline::child_main(&args[1..]) {
            eprintln!("error: child: {e}");
            std::process::exit(1);
        }
        return;
    }
    let mut workload: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut seconds: Option<u64> = None;
    let mut trace: Option<bool> = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v.to_owned()),
            ("--seed", Some(v)) => seed = v.parse().ok(),
            ("--seconds", Some(v)) => seconds = v.parse().ok().filter(|&s| s > 0),
            ("--trace", Some("0")) => trace = Some(false),
            ("--trace", Some("1")) => trace = Some(true),
            ("--help" | "-h", _) => {
                println!("{USAGE}");
                return;
            }
            (flag, _) => usage_error(&format!("bad argument {flag}")),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage_error("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage_error("--seed needs a number"));
    let seconds = seconds.unwrap_or_else(|| usage_error("--seconds needs a positive number"));
    let trace = trace.unwrap_or_else(|| usage_error("--trace needs 0 or 1"));
    if !matches!(workload.as_str(), "batch" | "serve-hot" | "serve-ndt") {
        usage_error(&format!("unknown workload {workload}"));
    }

    let work = util::WorkDir::create(&format!("{workload}-{seed}"))
        .unwrap_or_else(|e| usage_error(&format!("cannot create the work directory: {e}")));
    println!("perfbench workload={workload} seed={seed} seconds={seconds} trace={trace:?}");
    println!("machine: {}", util::machine_tag());
    println!("archive trees: {} filesystem", work.filesystem());
    let run = Run {
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        work,
    };
    let result = match workload.as_str() {
        "batch" => batch::run(&run),
        "serve-hot" => serve::run(&run, true),
        _ => serve::run(&run, false),
    };
    drop(run);
    let outcome = result.unwrap_or_else(|e| {
        eprintln!("error: {workload}: {e}");
        std::process::exit(1);
    });
    if let Some(tracer) = &outcome.trace {
        let path = std::path::Path::new(".perfbench_run")
            .join("trace")
            .join(format!("{workload}-seed{seed}.tsv"));
        match tracer.write_tsv(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    std::process::exit(report(&outcome));
}

/// Print the text table and the JSON line; the exit status.
fn report(outcome: &Outcome) -> i32 {
    for note in &outcome.notes {
        println!("{note}");
    }
    let width = outcome
        .metrics
        .iter()
        .map(|m| m.name.len())
        .max()
        .unwrap_or(0);
    for m in &outcome.metrics {
        println!("{:width$}  {:>16.4}  {}", m.name, m.value, m.unit);
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{:width$}  {error_rate:>16.4}  ratio ({} failed of {} attempted)",
        "error_rate", outcome.failed, outcome.attempted
    );
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let correct = outcome.failed == 0 && outcome.attempted > 0 && finite;
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::Obj(vec![
                    (
                        "value".into(),
                        Json::Num(if m.value.is_finite() { m.value } else { 0.0 }),
                    ),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", line.to_text());
    if correct {
        0
    } else {
        1
    }
}
