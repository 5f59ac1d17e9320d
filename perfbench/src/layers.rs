//! The traced run's layer pass and the in-process request replay.
//!
//! Every traced run ends with one layer pass over an archive tree it
//! dumped, so every traced run reports the same per-layer table. Each
//! `source.load` of the pass is followed by a `crisis.regen` probe that
//! repeats the regeneration `ArchiveWorld::load_with` does inside the
//! load (economy, operators, DNS world). The pass runs:
//!
//! * every registry endpoint run serially, in registry order, on a
//!   freshly loaded source, so the first consumer of a lazy cache pays
//!   to fill it (`experiments.run`, tagged with the id), then the three
//!   renders of those results;
//! * unless the caller's own iterations already timed one, the report
//!   over the tree (`e2e.report`: load, parallel battery, text render),
//!   its battery checked against the serial results;
//! * a `ServerState` on a fresh source, warmed with the 50 hot keys,
//!   replaying the hot stream and then the NDT stream in process,
//!   untraced and traced passes alternating: `http::read_request` over
//!   the request bytes, `serve::respond`, and `Response::write_to` into
//!   a buffer. The cache outcome of each request is the change of the
//!   `/metrics` hit and miss counters. The serve workloads attribute
//!   their loopback latency with these passes.

use crate::pipeline;
use crate::streams::{self, Checker, NdtProbe, Req};
use crate::trace::Tracer;
use crate::{Metric, Outcome};
use lacnet_core::render::{canonical_tsv, render_result, result_json};
use lacnet_core::serve::{respond, ServeOptions, ServerState};
use lacnet_core::{registry, DataSource};
use lacnet_crisis::{dns, Economy};
use lacnet_types::http::{self, Limits};
use lacnet_types::sweep;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// In-process passes over each stream, untraced and traced alternating.
const REPLAY_PASSES: usize = 4;

/// What one replay of a stream did.
#[derive(Default)]
pub struct Replay {
    pub requests: u64,
    pub hits: u64,
    pub body_bytes: u64,
    pub wall: Duration,
}

/// The replay passes over one stream: their totals, the wall time of
/// each untraced and traced pass, and the spans of the traced ones.
#[derive(Default)]
pub struct Replays {
    pub requests: u64,
    pub hits: u64,
    pub body_bytes: u64,
    pub untraced_secs: Vec<f64>,
    pub traced_secs: Vec<f64>,
    pub spans: Range<usize>,
}

impl Replays {
    /// How much of `base_us`, the mean loopback latency of the same
    /// requests, the traced passes' layer spans cover; with the cover
    /// table for the report.
    pub fn attribution(&self, tracer: &Tracer, base_us: f64) -> (Attribution, Vec<String>) {
        let cover = cover(tracer, self.spans.clone(), &["e2e.request"]);
        let covered_us = (cover.total_ns - cover.uncovered_ns) as f64 / cover.ops as f64 / 1e3;
        let mut lines = cover.lines;
        lines.push(format!(
            "  loopback mean latency {base_us:.1} us/op; in-process spans cover {covered_us:.1} us/op of it"
        ));
        let attribution = Attribution {
            unattributed_share: 1.0 - covered_us / base_us,
            base_us,
            overhead_share: crate::util::median(&self.traced_secs)
                / crate::util::median(&self.untraced_secs)
                - 1.0,
        };
        (attribution, lines)
    }
}

/// Replay `stream` [`REPLAY_PASSES`] times against `state`, untraced
/// first; leaves `tracer` enabled.
fn replays(
    state: &ServerState,
    stream: &[Req],
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Replays {
    let mut checker = Checker::new(stream);
    let mut out = Replays::default();
    let first = tracer.spans().len();
    for pass in 0..REPLAY_PASSES {
        let traced = pass % 2 == 1;
        tracer.set_enabled(traced);
        let one = replay(state, stream, &mut checker, tracer, outcome);
        out.requests += one.requests;
        out.hits += one.hits;
        out.body_bytes += one.body_bytes;
        let secs = one.wall.as_secs_f64();
        if traced {
            out.traced_secs.push(secs);
        } else {
            out.untraced_secs.push(secs);
        }
    }
    tracer.set_enabled(true);
    out.spans = first..tracer.spans().len();
    out
}

/// Replay `stream` against `state` in process, checking every answer.
/// Each request is an `e2e.request` span with `http.parse`,
/// `serve.respond` (tagged `hit`, `miss` or `uncached`) and
/// `http.write` children.
fn replay(
    state: &ServerState,
    stream: &[Req],
    checker: &mut Checker,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Replay {
    let limits = Limits::default();
    let mut sink: Vec<u8> = Vec::new();
    let mut totals = Replay::default();
    let start = Instant::now();
    for (i, req) in stream.iter().enumerate() {
        let id = i as u64;
        let (hits_before, misses_before) = state.metrics().cache_totals();
        let root = tracer.begin("e2e.request", "", id);
        let parsed = tracer.time("http.parse", id, || {
            http::read_request(&mut req.bytes.as_slice(), &limits)
        });
        let Ok(request) = parsed else {
            tracer.end(root);
            outcome.record(false);
            continue;
        };
        let respond_span = tracer.begin("serve.respond", "", id);
        let response = respond(state, &request);
        tracer.end(respond_span);
        sink.clear();
        let written = tracer.time("http.write", id, || response.write_to(&mut sink, false));
        tracer.end(root);
        let (hits, misses) = state.metrics().cache_totals();
        let cache = if hits > hits_before {
            totals.hits += 1;
            "hit"
        } else if misses > misses_before {
            "miss"
        } else {
            "uncached"
        };
        tracer.retag(respond_span, cache);
        totals.requests += 1;
        totals.body_bytes += response.body.len() as u64;
        outcome.record(written.is_ok() && checker.check(i, response.status, &response.body));
    }
    totals.wall = start.elapsed();
    totals
}

/// Warm `state` with every hot key, as the serve-hot warm pass does.
pub fn warm(state: &ServerState, reference: &streams::HotReference, outcome: &mut Outcome) {
    let limits = Limits::default();
    for (_, target, body) in &reference.keys {
        let bytes = crate::client::get(target);
        let ok = http::read_request(&mut bytes.as_slice(), &limits)
            .map(|request| {
                let response = respond(state, &request);
                response.status == 200 && response.body == **body
            })
            .unwrap_or(false);
        outcome.record(ok);
    }
}

/// Facts of the layer pass that are not span durations.
pub struct LayerFacts {
    pub render_bytes: usize,
    pub hot: Replays,
    pub ndt: Replays,
    pub probe: NdtProbe,
}

/// Run the layer pass over the dumped tree `tree`; `with_report` adds
/// the report over it.
pub fn pass(
    tree: &Path,
    seed: u64,
    with_report: bool,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<LayerFacts, String> {
    let load = |tracer: &mut Tracer| -> Result<DataSource<'static>, String> {
        let source = tracer
            .time("source.load", 0, || DataSource::from_archive(tree))
            .map_err(|e| format!("load {}: {e}", tree.display()))?;
        let config = *source.config();
        let anchors = &source.scenario().gdp_anchors;
        tracer.time("crisis.regen", 0, || {
            sweep::join2(
                || Economy::generate_with(config.economy_start, config.end, anchors),
                || {
                    sweep::join2(
                        || lacnet_crisis::operators::Operators::generate(config.seed),
                        || dns::build_dns_world(config.seed),
                    )
                },
            )
        });
        Ok(source)
    };

    let serial_source = load(tracer)?;
    let mut results = Vec::with_capacity(registry::ENDPOINTS.len());
    for endpoint in &registry::ENDPOINTS {
        let open = tracer.begin("experiments.run", endpoint.id, 0);
        results.push((endpoint.run)(&serial_source));
        tracer.end(open);
    }
    drop(serial_source);
    let text: usize = tracer.time("render.text", 0, || {
        results.iter().map(|r| render_result(r).len()).sum()
    });
    let tsv: Vec<(&'static str, String)> = tracer.time("render.tsv", 0, || {
        registry::ENDPOINTS
            .iter()
            .zip(&results)
            .map(|(e, r)| (e.id, canonical_tsv(r)))
            .collect()
    });
    let json: Vec<Vec<u8>> = tracer.time("render.json", 0, || {
        results
            .iter()
            .map(|r| result_json(r).to_text().into_bytes())
            .collect()
    });
    let render_bytes = text
        + tsv.iter().map(|(_, t)| t.len()).sum::<usize>()
        + json.iter().map(Vec::len).sum::<usize>();
    let reference = streams::HotReference::from_rendered(&tsv, json);

    if with_report {
        let (_, battery) = pipeline::report(tree, tracer, 0)?;
        outcome.record(pipeline::matches(&battery, &tsv));
    }

    let source = Arc::new(load(tracer)?);

    let state = ServerState::new(Arc::clone(&source), ServeOptions::default().cache_capacity);
    warm(&state, &reference, outcome);
    let hot_stream = streams::hot_stream(&reference, seed, 0);
    let hot = replays(&state, &hot_stream, tracer, outcome);
    let mut probe = NdtProbe::default();
    let ndt_stream = streams::ndt_stream(&source, seed, 0, tracer, &mut probe)?;
    let ndt = replays(&state, &ndt_stream, tracer, outcome);
    outcome.notes.push(format!(
        "source.shards_pruned_ratio {} ({} shards pruned over {} months queried)",
        probe.shards_pruned as f64 / probe.months_queried.max(1) as f64,
        probe.shards_pruned,
        probe.months_queried
    ));
    Ok(LayerFacts {
        render_bytes,
        hot,
        ndt,
        probe,
    })
}

/// How much of a workload's end-to-end time the traced spans cover.
pub struct Attribution {
    /// Share of the base not covered by layer spans.
    pub unattributed_share: f64,
    /// Mean end-to-end time per operation the share is taken of, µs.
    pub base_us: f64,
    /// Traced wall time over untraced wall time, minus one.
    pub overhead_share: f64,
}

/// The per-layer table, in `BENCHMARK.json` order.
pub fn metrics(
    tracer: &Tracer,
    facts: &LayerFacts,
    summary: &lacnet_core::DumpSummary,
    attribution: &Attribution,
) -> Result<Vec<Metric>, String> {
    let median_of = |name: &str, tag: Option<&str>, scale: f64| -> Result<f64, String> {
        let values = tracer.durations_ms(name, tag);
        if values.is_empty() {
            return Err(format!("no `{name}` span recorded"));
        }
        Ok(crate::util::median(&values) * scale)
    };
    let mut out = vec![
        Metric::new("pipeline.dump_ms", median_of("e2e.dump", None, 1.0)?, "ms"),
        Metric::new(
            "pipeline.report_ms",
            median_of("e2e.report", None, 1.0)?,
            "ms",
        ),
        Metric::new(
            "crisis.generate_ms",
            median_of("crisis.generate", None, 1.0)?,
            "ms",
        ),
        Metric::new("bgp.prewarm_ms", median_of("bgp.prewarm", None, 1.0)?, "ms"),
        Metric::new(
            "datasets.dump_ms",
            median_of("datasets.dump", None, 1.0)?,
            "ms",
        ),
        Metric::new("datasets.bytes_written", summary.bytes as f64, "bytes"),
        Metric::new(
            "datasets.files_written",
            summary.files.len() as f64,
            "count",
        ),
        Metric::new(
            "datasets.shards_written",
            summary.shards_written as f64,
            "count",
        ),
        Metric::new("source.load_ms", median_of("source.load", None, 1.0)?, "ms"),
        Metric::new(
            "crisis.regen_ms",
            median_of("crisis.regen", None, 1.0)?,
            "ms",
        ),
    ];
    for endpoint in &registry::ENDPOINTS {
        out.push(Metric::new(
            format!("experiments.{}_ms", endpoint.id),
            median_of("experiments.run", Some(endpoint.id), 1.0)?,
            "ms",
        ));
    }
    let probe = &facts.probe;
    let queries = (probe.month_queries + probe.range_queries).max(1) as f64;
    out.extend([
        Metric::new(
            "experiments.battery_ms",
            median_of("experiments.battery", None, 1.0)?,
            "ms",
        ),
        Metric::new("render.text_ms", median_of("render.text", None, 1.0)?, "ms"),
        Metric::new("render.tsv_ms", median_of("render.tsv", None, 1.0)?, "ms"),
        Metric::new("render.json_ms", median_of("render.json", None, 1.0)?, "ms"),
        Metric::new("render.bytes", facts.render_bytes as f64, "bytes"),
        Metric::new("http.parse_us", median_of("http.parse", None, 1e3)?, "us"),
        Metric::new(
            "serve.respond_hit_us",
            median_of("serve.respond", Some("hit"), 1e3)?,
            "us",
        ),
        Metric::new(
            "serve.respond_miss_us",
            median_of("serve.respond", Some("miss"), 1e3)?,
            "us",
        ),
        Metric::new("http.write_us", median_of("http.write", None, 1e3)?, "us"),
        Metric::new(
            "serve.body_bytes",
            facts.hot.body_bytes as f64 / facts.hot.requests.max(1) as f64,
            "bytes",
        ),
        Metric::new(
            "serve.cache_hit_ratio",
            facts.hot.hits as f64 / facts.hot.requests.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "serve.ndt_cache_hit_ratio",
            facts.ndt.hits as f64 / facts.ndt.requests.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "source.ndt_month_us",
            median_of("source.ndt_month", None, 1e3)?,
            "us",
        ),
        Metric::new(
            "source.ndt_range_us",
            median_of("source.ndt_range", None, 1e3)?,
            "us",
        ),
        Metric::new(
            "mlab.bytes_decoded_per_query",
            probe.read.bytes_decoded as f64 / queries,
            "bytes",
        ),
        Metric::new(
            "mlab.blocks_decoded_ratio",
            probe.read.blocks_decoded as f64 / probe.read.blocks_total.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "source.shards_opened_ratio",
            probe.shards_opened as f64 / probe.months_queried.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "unattributed_share",
            attribution.unattributed_share,
            "ratio",
        ),
        Metric::new("unattributed_base_us", attribution.base_us, "us"),
        Metric::new("trace_overhead_share", attribution.overhead_share, "ratio"),
    ]);
    Ok(out)
}

/// How the root spans of a run's traced operations split into layers.
pub struct Cover {
    /// The table: each child layer's mean time per operation and share
    /// of the roots' total wall time, then the roots' uncovered time.
    pub lines: Vec<String>,
    pub ops: u64,
    pub total_ns: u64,
    pub uncovered_ns: u64,
}

/// Reduce the spans in `range` over the root spans named in `roots`;
/// one operation opens one root of each name.
pub fn cover(tracer: &Tracer, range: Range<usize>, roots: &[&str]) -> Cover {
    let from = range.start;
    let spans = &tracer.spans()[range];
    let is_root = |i: usize| spans[i].parent.is_none() && roots.contains(&spans[i].name);
    let (mut ops, mut total_ns) = (0u64, 0u64);
    let mut layers: Vec<(&str, u64)> = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        if is_root(i) {
            ops += u64::from(span.name == roots[0]);
            total_ns += span.dur_ns();
        }
        let Some(parent) = span.parent.and_then(|p| p.checked_sub(from)) else {
            continue;
        };
        if is_root(parent) {
            match layers.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, ns)) => *ns += span.dur_ns(),
                None => layers.push((span.name, span.dur_ns())),
            }
        }
    }
    let uncovered_ns = total_ns - layers.iter().map(|(_, ns)| ns).sum::<u64>();
    let line = |name: &str, ns: u64| {
        format!(
            "  {name:<24} {:>14.1} us/op {:>7.2}%",
            ns as f64 / ops.max(1) as f64 / 1e3,
            100.0 * ns as f64 / total_ns.max(1) as f64
        )
    };
    let mut lines = vec![format!(
        "attribution over {ops} traced operations, {} ({:.1} us/op):",
        roots.join(" + "),
        total_ns as f64 / ops.max(1) as f64 / 1e3
    )];
    lines.extend(layers.iter().map(|(name, ns)| line(name, *ns)));
    lines.push(line("(uncovered)", uncovered_ns));
    Cover {
        lines,
        ops,
        total_ns,
        uncovered_ns,
    }
}
