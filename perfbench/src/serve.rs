//! The `serve-hot` and `serve-ndt` workloads: `lacnet-serve` booted in
//! process on a columnar archive of the default world for the seed, and
//! driven over loopback by a closed loop of keep-alive connections, one
//! thread each, never more than the machine's logical CPUs.
//!
//! The served archive is one fresh dump of the seed's world. Each set-up
//! repetition boots the server on it: `DataSource::from_archive`,
//! `Server::bind` and `Server::run` with the default `ServeOptions`, and
//! a warm pass. `setup_s` runs from the start of the load until the warm
//! pass is done. The server of the last repetition serves the timed
//! phase.

use crate::client::{self, Conn};
use crate::layers;
use crate::pipeline;
use crate::streams::{self, Checker, NdtProbe, Req};
use crate::trace::Tracer;
use crate::util::{median, nproc, reset_peak_rss, sorted_quantile, Samples};
use crate::{Metric, Outcome, Run};
use lacnet_core::serve::{ServeOptions, Server, ServerHandle};
use lacnet_core::DataSource;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Connections (and client threads) of the closed loop, capped at the
/// machine's logical CPUs.
const CLIENTS: usize = 2;

/// A server running on its own thread.
struct Booted {
    source: Arc<DataSource<'static>>,
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Booted {
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

fn boot(tree: &Path, tracer: &mut Tracer) -> Result<Booted, String> {
    let source = tracer
        .time("source.load", 0, || DataSource::from_archive(tree))
        .map_err(|e| format!("load {}: {e}", tree.display()))?;
    let source = Arc::new(source);
    let server = Server::bind(Arc::clone(&source), "127.0.0.1:0", ServeOptions::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle().map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(move || server.run());
    Ok(Booted {
        source,
        addr,
        handle,
        thread,
    })
}

/// The warm pass. `serve-hot` requests all 25 registry routes in JSON
/// and TSV, spread over the client connections, which computes every
/// experiment once per format; `serve-ndt` asks `/healthz` and
/// `/archive`. Every answer must be a 200.
fn warm(addr: SocketAddr, hot: bool, clients: usize, outcome: &mut Outcome) -> Result<(), String> {
    let targets: Vec<String> = if hot {
        lacnet_core::registry::ENDPOINTS
            .iter()
            .flat_map(|e| [e.http_path(), format!("{}?format=tsv", e.http_path())])
            .collect()
    } else {
        vec!["/healthz".into(), "/archive".into()]
    };
    let per_conn = targets.len().div_ceil(clients);
    let results: Vec<std::io::Result<Vec<bool>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = targets
            .chunks(per_conn)
            .map(|chunk| {
                scope.spawn(move || -> std::io::Result<Vec<bool>> {
                    let mut conn = Conn::connect(addr)?;
                    chunk
                        .iter()
                        .map(|t| conn.request(&client::get(t)).map(|status| status == 200))
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("warm client panicked"))
            .collect()
    });
    for result in results {
        for ok in result.map_err(|e| format!("warm pass: {e}"))? {
            outcome.record(ok);
        }
    }
    Ok(())
}

/// What the closed loop measured.
struct LoopStats {
    /// Requests answered.
    answered: u64,
    /// A systematic sample of their latencies, µs, sorted.
    sorted_us: Vec<f64>,
    /// Sum of every answered request's latency, µs.
    total_us: f64,
    wall: f64,
}

/// Latency samples the p99 needs to have ten beyond it.
const MIN_SAMPLES: usize = 1000;

/// Latencies each client keeps: all of them up to this many, then an
/// evenly thinned sample, so the load generator's memory is fixed before
/// the loop starts whatever the throughput.
const KEPT_LATENCIES: usize = 1 << 16;

/// Drive `streams` (one per connection) against `addr` for `duration`,
/// and on past it while the clients together hold fewer than
/// `min_samples` answers (up to three times `duration`): each client
/// sends its next request only after the previous answer's last byte is
/// read. Latency runs from the start of the request write to that last
/// byte. A failed or timed-out request is counted and the connection
/// reopened.
fn closed_loop(
    addr: SocketAddr,
    streams: &[Vec<Req>],
    duration: Duration,
    min_samples: usize,
    outcome: &mut Outcome,
) -> Result<LoopStats, String> {
    assert!(
        streams.len() <= nproc(),
        "load generator would exceed nproc threads"
    );
    struct Client {
        latencies: Samples,
        total_us: f64,
        attempted: u64,
        failed: u64,
        finished: Instant,
    }
    // Every buffer is allocated and touched before the loop starts.
    let mut clients: Vec<Client> = streams
        .iter()
        .map(|_| Client {
            latencies: Samples::with_capacity(KEPT_LATENCIES),
            total_us: 0.0,
            attempted: 0,
            failed: 0,
            finished: Instant::now(),
        })
        .collect();
    let mut sorted_us = vec![f64::NAN; streams.len() * KEPT_LATENCIES];
    let barrier = Barrier::new(streams.len() + 1);
    let answered = AtomicUsize::new(0);
    let (start, results) = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .zip(clients.iter_mut())
            .map(|(stream, client)| {
                let (barrier, answered) = (&barrier, &answered);
                scope.spawn(move || -> Result<(), String> {
                    let conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"));
                    barrier.wait();
                    let mut conn = conn?;
                    let start = Instant::now();
                    let more = |now: Instant| {
                        now < start + duration
                            || (answered.load(Ordering::Relaxed) < min_samples
                                && now < start + 3 * duration)
                    };
                    let mut checker = Checker::new(stream);
                    let mut i = 0usize;
                    while more(Instant::now()) {
                        let index = i % stream.len();
                        i += 1;
                        client.attempted += 1;
                        let sent = Instant::now();
                        match conn.request(&stream[index].bytes) {
                            Ok(status) => {
                                let latency_us = sent.elapsed().as_secs_f64() * 1e6;
                                client.latencies.push(latency_us);
                                client.total_us += latency_us;
                                answered.fetch_add(1, Ordering::Relaxed);
                                if !checker.check(index, status, &conn.body) {
                                    client.failed += 1;
                                }
                            }
                            Err(e) => {
                                eprintln!("request {}: {e}", stream[index].target);
                                client.failed += 1;
                                conn =
                                    Conn::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
                            }
                        }
                    }
                    client.finished = Instant::now();
                    Ok(())
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect();
        (start, results)
    });
    for result in results {
        result?;
    }
    let mut end = start;
    let mut total_us = 0.0;
    for client in &clients {
        outcome.attempted += client.attempted;
        outcome.failed += client.failed;
        total_us += client.total_us;
        end = end.max(client.finished);
    }
    let answered = clients.iter().map(|c| c.latencies.seen()).sum();
    let mut parts: Vec<Samples> = clients.into_iter().map(|c| c.latencies).collect();
    Samples::pool(&mut parts, &mut sorted_us);
    Ok(LoopStats {
        answered,
        sorted_us,
        total_us,
        wall: (end - start).as_secs_f64(),
    })
}

/// Each connection's request stream, with expected answers from direct
/// calls on `source`.
fn request_streams(
    source: &DataSource,
    hot: bool,
    seed: u64,
    clients: usize,
    outcome: &mut Outcome,
) -> Result<Vec<Vec<Req>>, String> {
    if hot {
        let reference = streams::hot_reference(source);
        outcome.notes.push(streams::hot_mix_note(&reference));
        return Ok((0..clients)
            .map(|c| streams::hot_stream(&reference, seed, c))
            .collect());
    }
    let mut quiet = Tracer::new(false);
    (0..clients)
        .map(|c| streams::ndt_stream(source, seed, c, &mut quiet, &mut NdtProbe::default()))
        .collect()
}

pub fn run(run: &Run, hot: bool) -> Result<Outcome, String> {
    let name = if hot { "serve-hot" } else { "serve-ndt" };
    let clients = CLIENTS.min(nproc());
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(run.trace);

    let tree = run.work.tree(name);
    let (_, summary) = pipeline::dump_stage(run, &tree, &mut tracer, 0)?;
    let mut setup = Vec::new();
    let mut booted: Option<Booted> = None;
    let mut peak_reset = false;
    let mut streams = Vec::new();
    for rep in 0..SETUP_REPS {
        if let Some(previous) = booted.take() {
            previous.stop()?;
        }
        // The peak memory is that of the server that serves the timed
        // phase, not the highest of the set-up repetitions' loads.
        if rep + 1 == SETUP_REPS {
            peak_reset = reset_peak_rss();
        }
        let start = Instant::now();
        let server = boot(&tree, &mut tracer)?;
        warm(server.addr, hot, clients, &mut outcome)?;
        setup.push(start.elapsed().as_secs_f64());
        eprintln!("{name} set-up {rep}: {:.4} s", setup[rep]);
        // Expected answers come from direct calls on the first served
        // source, made before the serving boot so that the generator's
        // own allocations stay out of the server's peak memory.
        if rep == 0 {
            streams = request_streams(&server.source, hot, run.seed, clients, &mut outcome)?;
        }
        booted = Some(server);
    }
    let server = booted.expect("at least one set-up repetition");
    outcome.notes.push(format!(
        "peak_rss_mb counts from {}",
        if peak_reset {
            "the last set-up repetition's boot"
        } else {
            "the start of the process (the kernel refused to reset VmHWM)"
        }
    ));

    // Traced, only the mean latency is used: the base the in-process
    // replay of the layer pass attributes.
    let min_samples = if run.trace { 0 } else { MIN_SAMPLES };
    let stats = closed_loop(
        server.addr,
        &streams,
        run.seconds,
        min_samples,
        &mut outcome,
    )?;
    let samples = stats.answered;
    outcome.notes.push(format!(
        "{name}: closed loop of {clients} keep-alive connections, {clients} client threads \
         (nproc {}), {samples} requests in {:.2} s, {} latencies kept",
        nproc(),
        stats.wall,
        stats.sorted_us.len()
    ));

    if !run.trace {
        if (samples as usize) < MIN_SAMPLES {
            return Err(format!(
                "{samples} latency samples: p99 needs {MIN_SAMPLES} for ten beyond it"
            ));
        }
        outcome.metrics = vec![
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("req_per_s", samples as f64 / stats.wall, "1/s"),
            Metric::new(
                "latency_p50_us",
                sorted_quantile(&stats.sorted_us, 0.5),
                "us",
            ),
            Metric::new(
                "latency_p99_us",
                sorted_quantile(&stats.sorted_us, 0.99),
                "us",
            ),
            Metric::new("peak_rss_mb", crate::util::peak_rss_mb(), "MB"),
        ];
        server.stop()?;
        return Ok(outcome);
    }

    // Attribution: the layer pass replays this workload's stream in
    // process, and its spans are compared with the loopback latency.
    let facts = layers::pass(&tree, run.seed, true, &mut tracer, &mut outcome)?;
    server.stop()?;
    let base_us = stats.total_us / samples.max(1) as f64;
    let own = if hot { &facts.hot } else { &facts.ndt };
    let (attribution, lines) = own.attribution(&tracer, base_us);
    outcome.notes.extend(lines);
    let summary = summary.expect("traced set-up dumps in process");
    outcome.metrics = layers::metrics(&tracer, &facts, &summary, &attribution)?;
    outcome.trace = Some(tracer);
    Ok(outcome)
}
