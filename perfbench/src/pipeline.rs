//! The batch pipeline as `lacnet-gen --shard-format columnar` and
//! `vzla-report --from-archive` run it, called through the library.

use crate::trace::Tracer;
use crate::Run;
use lacnet_core::datasets::{self, DumpOptions, DumpSummary};
use lacnet_core::render::{canonical_tsv, render_result};
use lacnet_core::{experiments, extensions, DataSource, ExperimentResult};
use lacnet_crisis::config::windows;
use lacnet_crisis::{Scenario, World, WorldConfig};
use lacnet_mlab::ShardFormat;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// The default full-scale world for `seed`.
pub fn world_config(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        ..WorldConfig::default()
    }
}

/// One fresh columnar-v2 dump of the world into the empty tree `tree`.
/// Traced, the pfx2as tables and cones are prewarmed in their own span
/// first, so the prewarm inside `dump_with` is a cache hit and
/// `datasets.dump` is the export alone. The world is dropped after the
/// clock stops.
pub fn dump(
    config: WorldConfig,
    tree: &Path,
    tracer: &mut Tracer,
    id: u64,
) -> Result<(Duration, DumpSummary), String> {
    let start = Instant::now();
    let root = tracer.begin("e2e.dump", "", id);
    let world = tracer.time("crisis.generate", id, || {
        World::generate_with(config, Scenario::venezuela())
    });
    if tracer.enabled() {
        tracer.time("bgp.prewarm", id, || {
            world.prewarm(windows::pfx2as_start(), config.end)
        });
    }
    let options = DumpOptions {
        shard_format: ShardFormat::Columnar,
        ..DumpOptions::default()
    };
    let summary = tracer.time("datasets.dump", id, || {
        datasets::dump_with(&world, tree, options)
    });
    tracer.end(root);
    let elapsed = start.elapsed();
    drop(world);
    let summary = summary.map_err(|e| format!("dump into {}: {e}", tree.display()))?;
    Ok((elapsed, summary))
}

/// The report over `tree`: load, the paper battery plus the extensions,
/// and the text render of every result. Returns the results for the
/// correctness check.
pub fn report(
    tree: &Path,
    tracer: &mut Tracer,
    id: u64,
) -> Result<(Duration, Vec<ExperimentResult>), String> {
    let start = Instant::now();
    let root = tracer.begin("e2e.report", "", id);
    let source = tracer.time("source.load", id, || DataSource::from_archive(tree));
    let source = match source {
        Ok(source) => source,
        Err(e) => {
            tracer.end(root);
            return Err(format!("load {}: {e}", tree.display()));
        }
    };
    let results = tracer.time("experiments.battery", id, || battery(&source));
    let bytes: usize = tracer.time("render.text", id, || {
        results.iter().map(|r| render_result(r).len()).sum()
    });
    black_box(bytes);
    tracer.end(root);
    Ok((start.elapsed(), results))
}

/// The paper battery followed by the extensions, as `vzla-report` runs
/// them.
pub fn battery(source: &DataSource) -> Vec<ExperimentResult> {
    let mut results = experiments::all(source);
    results.extend(extensions::all(source));
    results
}

/// The canonical TSV of every result of the in-memory battery for
/// `config`: the reference a report from an archive must reproduce.
pub fn reference(config: WorldConfig) -> Vec<(String, String)> {
    let world = World::generate_with(config, Scenario::venezuela());
    let source = DataSource::in_memory(&world);
    battery(&source)
        .iter()
        .map(|r| (r.id.clone(), canonical_tsv(r)))
        .collect()
}

/// Whether `results` render byte-identically to `reference`, in order.
pub fn matches<S: AsRef<str>>(results: &[ExperimentResult], reference: &[(S, String)]) -> bool {
    results.len() == reference.len()
        && results
            .iter()
            .zip(reference)
            .all(|(r, (id, tsv))| r.id == id.as_ref() && canonical_tsv(r) == *tsv)
}

/// One pipeline stage's wall time, the peak resident memory of the
/// process that ran it (MiB; NaN in process), and, for a report, the
/// canonical TSV of every result.
pub struct Stage {
    pub secs: f64,
    pub peak_mb: f64,
    pub tsv: Vec<(String, String)>,
}

/// Run a dump or a report in its own process, as `lacnet-gen` and
/// `vzla-report` run: this binary re-executed with `--child`.
fn child(args: &[&str]) -> Result<Vec<u8>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .arg("--child")
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    if !output.status.success() {
        return Err(format!("child {args:?} exited with {}", output.status));
    }
    Ok(output.stdout)
}

/// The first line of `out`, and where the rest starts.
fn header_line(out: &[u8]) -> Result<(String, usize), String> {
    let end = out
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("child output ends early")?;
    let line = std::str::from_utf8(&out[..end]).map_err(|_| "child output is not UTF-8")?;
    Ok((line.to_owned(), end + 1))
}

/// The `count` numbers of a child's first output line, and where the
/// rest starts.
fn header(out: &[u8], count: usize) -> Result<(Vec<f64>, usize), String> {
    let (line, next) = header_line(out)?;
    let fields = line
        .split(' ')
        .map(|f| f.parse().ok())
        .collect::<Option<Vec<f64>>>()
        .filter(|f| f.len() == count)
        .ok_or("malformed child header")?;
    Ok((fields, next))
}

/// A fresh dump of the world for the run's seed into the empty tree
/// `tree`. Untraced it runs in its own process, as `lacnet-gen` does, so
/// its peak memory is its own and no run inherits another's heap;
/// traced it runs in this process, records spans and returns the dump's
/// summary.
pub fn dump_stage(
    run: &Run,
    tree: &Path,
    tracer: &mut Tracer,
    id: u64,
) -> Result<(Stage, Option<DumpSummary>), String> {
    if run.trace {
        let (secs, summary) = dump(world_config(run.seed), tree, tracer, id)?;
        let stage = Stage {
            secs: secs.as_secs_f64(),
            peak_mb: f64::NAN,
            tsv: Vec::new(),
        };
        return Ok((stage, Some(summary)));
    }
    let out = child(&["dump", &tree.to_string_lossy(), &run.seed.to_string()])?;
    let (fields, _) = header(&out, 2)?;
    let stage = Stage {
        secs: fields[0],
        peak_mb: fields[1],
        tsv: Vec::new(),
    };
    Ok((stage, None))
}

/// The report over `tree`, in its own process like `vzla-report` when
/// untraced, in this process with spans when traced.
pub fn report_stage(run: &Run, tree: &Path, tracer: &mut Tracer, id: u64) -> Result<Stage, String> {
    if run.trace {
        let (secs, results) = report(tree, tracer, id)?;
        return Ok(Stage {
            secs: secs.as_secs_f64(),
            peak_mb: f64::NAN,
            tsv: results
                .iter()
                .map(|r| (r.id.clone(), canonical_tsv(r)))
                .collect(),
        });
    }
    let out = child(&["report", &tree.to_string_lossy()])?;
    let (fields, mut at) = header(&out, 3)?;
    let mut tsv = Vec::new();
    for _ in 0..fields[2] as usize {
        let (meta, next) = header_line(&out[at..])?;
        let (id, len) = meta.split_once(' ').ok_or("malformed result header")?;
        let len: usize = len.parse().map_err(|_| "malformed result length")?;
        let start = at + next;
        let body = out
            .get(start..start + len)
            .ok_or("truncated child output")?;
        tsv.push((
            id.to_owned(),
            String::from_utf8(body.to_vec()).map_err(|_| "child TSV is not UTF-8")?,
        ));
        at = start + len;
    }
    Ok(Stage {
        secs: fields[0],
        peak_mb: fields[1],
        tsv,
    })
}

/// The `--child` side: run one stage untraced and print its wall time
/// and this process's peak memory, then (report) every result's
/// canonical TSV, each after an `id length` line.
pub fn child_main(args: &[String]) -> Result<(), String> {
    use std::io::Write as _;
    let mut tracer = Tracer::new(false);
    let mut out = Vec::new();
    match args {
        [stage, tree, seed] if stage == "dump" => {
            let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
            let (secs, _) = dump(world_config(seed), Path::new(tree), &mut tracer, 0)?;
            writeln!(out, "{} {}", secs.as_secs_f64(), crate::util::peak_rss_mb())
                .map_err(|e| e.to_string())?;
        }
        [stage, tree] if stage == "report" => {
            let (secs, results) = report(Path::new(tree), &mut tracer, 0)?;
            let peak = crate::util::peak_rss_mb();
            writeln!(out, "{} {peak} {}", secs.as_secs_f64(), results.len())
                .map_err(|e| e.to_string())?;
            for result in &results {
                let tsv = canonical_tsv(result);
                writeln!(out, "{} {}", result.id, tsv.len()).map_err(|e| e.to_string())?;
                out.extend_from_slice(tsv.as_bytes());
            }
        }
        _ => return Err(format!("bad child arguments {args:?}")),
    }
    std::io::stdout()
        .write_all(&out)
        .map_err(|e| format!("stdout: {e}"))
}
