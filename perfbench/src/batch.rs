//! The `batch` workload: each iteration dumps a fresh columnar archive
//! of the default world for the seed and runs the report over it, as
//! `lacnet-gen --shard-format columnar` followed by `vzla-report
//! --from-archive` does. Every iteration's results must render to the
//! same canonical TSV as the in-memory battery for the seed.

use crate::layers::{self, Attribution};
use crate::pipeline::{self, Stage};
use crate::trace::Tracer;
use crate::util::{mean, median, quantile};
use crate::{Metric, Outcome, Run};
use lacnet_core::DumpSummary;
use std::time::Instant;

/// Set-up iterations per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The tree a traced iteration leaves for the layer pass.
const KEPT_TREE: &str = "layers";

/// One iteration, or `None` when it failed. A traced one keeps its tree
/// as [`KEPT_TREE`] in place of the previous one's, so every iteration
/// still ends by removing one tree and the next dump meets the same
/// filesystem state, traced or not.
fn iteration(
    run: &Run,
    reference: &[(String, String)],
    tracer: &mut Tracer,
    id: u64,
    outcome: &mut Outcome,
) -> Option<(Stage, Stage, Option<DumpSummary>)> {
    let tree = run.work.tree("batch");
    let result = pipeline::dump_stage(run, &tree, tracer, id).and_then(|(dump, summary)| {
        let report = pipeline::report_stage(run, &tree, tracer, id)?;
        Ok((dump, report, summary))
    });
    let kept = tracer.enabled()
        && result.is_ok()
        && std::fs::rename(&tree, run.work.tree(KEPT_TREE)).is_ok();
    if !kept {
        let _ = std::fs::remove_dir_all(&tree);
    }
    match result {
        Ok((dump, report, summary)) => {
            outcome.record(report.tsv == reference);
            Some((dump, report, summary))
        }
        Err(e) => {
            eprintln!("batch iteration {id}: {e}");
            outcome.record(false);
            None
        }
    }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let config = pipeline::world_config(run.seed);
    let reference = pipeline::reference(config);
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(false);

    // Set-up: the first iterations of a run, on a cold page cache and
    // disk; they are checked but not timed.
    let mut setup = Vec::new();
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        iteration(run, &reference, &mut tracer, rep as u64, &mut outcome);
        setup.push(start.elapsed().as_secs_f64());
    }

    // Timed phase. Traced, untraced and traced iterations alternate, so
    // the tracing overhead is measured in the same process.
    let mut peaks = Vec::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut summary = None;
    let start = Instant::now();
    let deadline = start + run.seconds;
    let mut i = SETUP_REPS as u64;
    // Past the deadline, a few more iterations may run until the run
    // holds an untraced sample and, traced, a traced one.
    let lacking =
        |untraced: &[f64], traced: &[f64]| untraced.is_empty() || (run.trace && traced.is_empty());
    while Instant::now() < deadline || (lacking(&untraced, &traced) && i < SETUP_REPS as u64 + 4) {
        let trace_this = run.trace && i % 2 == 1;
        tracer.set_enabled(trace_this);
        if let Some((dump, report, s)) = iteration(run, &reference, &mut tracer, i, &mut outcome) {
            let total = dump.secs + report.secs;
            eprintln!(
                "batch iteration {i}: dump {:.4} s, report {:.4} s",
                dump.secs, report.secs
            );
            if trace_this {
                traced.push(total);
            } else {
                peaks.push(dump.peak_mb.max(report.peak_mb));
                untraced.push(total);
            }
            summary = s.or(summary);
        }
        i += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    if untraced.is_empty() {
        return Err("no batch iteration succeeded".into());
    }

    if !run.trace {
        outcome.metrics = vec![
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("req_per_s", untraced.len() as f64 / wall, "1/s"),
            Metric::new("latency_p50_us", median(&untraced) * 1e6, "us"),
            Metric::new("latency_p99_us", quantile(&untraced, 0.99) * 1e6, "us"),
            Metric::new("peak_rss_mb", median(&peaks), "MB"),
        ];
        outcome.notes.push(format!(
            "batch: {} timed iterations in {wall:.2} s; an operation is one iteration \
             (dump + report), so p99 is the slowest of these {} samples",
            untraced.len(),
            untraced.len()
        ));
        return Ok(outcome);
    }

    // Attribution: the share of the traced iterations' dump and report
    // wall time that no layer span covers.
    let cover = layers::cover(
        &tracer,
        0..tracer.spans().len(),
        &["e2e.dump", "e2e.report"],
    );
    outcome.notes.extend(cover.lines);
    let attribution = Attribution {
        unattributed_share: cover.uncovered_ns as f64 / cover.total_ns as f64,
        base_us: mean(&traced) * 1e6,
        overhead_share: median(&traced) / median(&untraced) - 1.0,
    };

    // The layer pass runs over the last traced iteration's tree; those
    // iterations already timed the dump and the report.
    let summary = summary.ok_or("no traced batch iteration succeeded")?;
    tracer.set_enabled(true);
    let tree = run.work.root().join(KEPT_TREE);
    let facts = layers::pass(&tree, run.seed, false, &mut tracer, &mut outcome)?;
    let _ = std::fs::remove_dir_all(&tree);
    outcome.metrics = layers::metrics(&tracer, &facts, &summary, &attribution)?;
    outcome.trace = Some(tracer);
    Ok(outcome)
}
