//! `lacnet-serve`: the battery as a long-running query service.
//!
//! A hand-rolled, zero-dependency HTTP/1.1 server — `std::net::TcpListener`
//! plus a fixed pool of scoped worker threads — holding a resident
//! [`DataSource`] and serving every figure series, table row and
//! extension output as a JSON (or canonical-TSV) endpoint. Routing goes
//! through [`crate::registry`], the same list `vzla-report` runs, so the
//! serving path and the batch path cannot drift; `tests/serve_http.rs`
//! proves their bytes identical against the golden fixtures.
//!
//! Responses flow through an [`LruCache`] keyed on
//! `(endpoint, query, archive fingerprint)` — the fingerprint is the
//! FNV-1a hash of `mlab/manifest.tsv`, so a re-dump invalidates every
//! cached body naturally. `/metrics` exposes per-endpoint request
//! counts, cache hit/miss counters and P²-estimated latency quantiles
//! in Prometheus text format.

pub mod metrics;

use crate::render::{canonical_tsv, result_json};
use crate::source::DataSource;
use crate::{datasets, registry};
use lacnet_types::codec;
use lacnet_types::http::{self, Body, Limits, Request, Response};
use lacnet_types::json::Json;
use lacnet_types::lru::LruCache;
use lacnet_types::{CountryCode, MonthStamp};
use metrics::{Metrics, Outcome};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for one server instance.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Worker threads handling connections.
    pub threads: usize,
    /// Response-cache capacity (bodies).
    pub cache_capacity: usize,
    /// Socket timeout in both directions. Reading, it is the slow-loris
    /// guard: a stalled client is dropped, never waited on forever.
    /// Writing, it drops a client that stops reading its responses, so
    /// it cannot pin a worker.
    pub read_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: 4,
            cache_capacity: 128,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// Everything the worker threads share: the resident data source, the
/// response cache, the metrics registry and the precomputed info bodies.
/// Cached responses share their [`Body`] bytes with every response that
/// serves them, so a hit costs a refcount bump.
pub struct ServerState {
    source: Arc<DataSource<'static>>,
    fingerprint: String,
    cache: LruCache<(String, String, String), Response>,
    metrics: Metrics,
    archive_body: Body,
    endpoints_body: Body,
    scenarios_body: Body,
    /// Lazily generated worlds backing `/scenario/{name}/…` routes for
    /// scenarios other than the resident one, keyed by scenario name.
    /// Each entry carries its own fingerprint, so scenario-scoped
    /// responses occupy distinct LRU slots.
    scenario_sources: Mutex<std::collections::BTreeMap<String, (Arc<DataSource<'static>>, String)>>,
}

/// The archive fingerprint a source serves under: the FNV-1a hash of
/// `mlab/manifest.tsv` for archive backends (a re-dump rewrites the
/// manifest, so the fingerprint — and every cache key — changes; a
/// scenario switch rewrites every shard fingerprint in it), the hash of
/// the generating config — folded with the scenario fingerprint for
/// non-default scenarios — for in-memory backends.
pub fn source_fingerprint(source: &DataSource) -> String {
    match source {
        DataSource::Archive(a) => {
            let manifest =
                std::fs::read(a.root().join(datasets::MLAB_MANIFEST)).unwrap_or_default();
            format!("{:016x}", codec::fnv1a64(&manifest))
        }
        DataSource::InMemory(w) => {
            let mut key = w.config.to_text();
            if !w.scenario.is_default() {
                key.push_str(&format!("scenario\t{:016x}\n", w.scenario.fingerprint()));
            }
            format!("{:016x}", codec::fnv1a64(key.as_bytes()))
        }
    }
}

/// NDT shard inventory of a source: total shard count and per-format
/// breakdown (`text`/`columnar` from the manifest for archives; the
/// shard plan, counted as in-memory, otherwise).
fn shard_inventory(source: &DataSource) -> Vec<(String, usize)> {
    match source {
        DataSource::Archive(a) => {
            let manifest =
                std::fs::read_to_string(a.root().join(datasets::MLAB_MANIFEST)).unwrap_or_default();
            let mut text = 0usize;
            let mut columnar = 0usize;
            for line in manifest.lines() {
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                match line.rsplit('\t').next() {
                    Some(path) if path.ends_with(".ndtc") => columnar += 1,
                    Some(_) => text += 1,
                    None => {}
                }
            }
            vec![("text".into(), text), ("columnar".into(), columnar)]
        }
        DataSource::InMemory(w) => {
            let plan = lacnet_crisis::bandwidth::shard_plan(
                lacnet_crisis::config::windows::mlab_start(),
                w.config.end,
            );
            vec![("in-memory".into(), plan.len())]
        }
    }
}

impl ServerState {
    /// Build the shared state around a resident source.
    pub fn new(source: Arc<DataSource<'static>>, cache_capacity: usize) -> Self {
        let fingerprint = source_fingerprint(&source);
        let shards = shard_inventory(&source);
        let archive_body = Json::Obj(vec![
            ("backend".into(), Json::Str(source.backend().into())),
            (
                "seed".into(),
                Json::Str(format!("{:#x}", source.config().seed)),
            ),
            ("end".into(), Json::Str(source.config().end.to_string())),
            ("fingerprint".into(), Json::Str(fingerprint.clone())),
            (
                "endpoints".into(),
                Json::Num(registry::ENDPOINTS.len() as f64),
            ),
            (
                "ndt_shards".into(),
                Json::Num(shards.iter().map(|(_, n)| n).sum::<usize>() as f64),
            ),
            (
                "shard_formats".into(),
                Json::Obj(
                    shards
                        .into_iter()
                        .map(|(fmt, n)| (fmt, Json::Num(n as f64)))
                        .collect(),
                ),
            ),
            (
                "ndt_query".into(),
                Json::Str(registry::NDT_MONTH_ROUTE.into()),
            ),
            (
                "ndt_range".into(),
                Json::Str(registry::NDT_RANGE_ROUTE.into()),
            ),
        ])
        .to_text()
        .into_bytes()
        .into();
        let endpoints_body = Json::Arr(
            registry::ENDPOINTS
                .iter()
                .map(|e| {
                    Json::Obj(vec![
                        ("id".into(), Json::Str(e.id.into())),
                        ("path".into(), Json::Str(e.http_path())),
                        (
                            "kind".into(),
                            Json::Str(
                                match e.kind {
                                    registry::Kind::Paper => "paper",
                                    registry::Kind::Extension => "extension",
                                }
                                .into(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
        .to_text()
        .into_bytes()
        .into();
        let resident = source.scenario().name.clone();
        let mut scenario_rows: Vec<Json> = Vec::new();
        let mut listed_resident = false;
        for name in lacnet_crisis::Scenario::builtin_names() {
            let s = lacnet_crisis::Scenario::builtin(name).expect("builtin scenario parses");
            listed_resident |= s.name == resident;
            scenario_rows.push(Json::Obj(vec![
                ("name".into(), Json::Str(s.name.clone())),
                ("description".into(), Json::Str(s.description.clone())),
                (
                    "fingerprint".into(),
                    Json::Str(format!("{:016x}", s.fingerprint())),
                ),
                ("default".into(), Json::Bool(s.is_default())),
                ("resident".into(), Json::Bool(s.name == resident)),
            ]));
        }
        if !listed_resident {
            // The resident source runs a custom (file-loaded) scenario:
            // list it too, so the inventory always covers every routable
            // name.
            let s = source.scenario();
            scenario_rows.push(Json::Obj(vec![
                ("name".into(), Json::Str(s.name.clone())),
                ("description".into(), Json::Str(s.description.clone())),
                (
                    "fingerprint".into(),
                    Json::Str(format!("{:016x}", s.fingerprint())),
                ),
                ("default".into(), Json::Bool(s.is_default())),
                ("resident".into(), Json::Bool(true)),
            ]));
        }
        let scenarios_body = Json::Arr(scenario_rows).to_text().into_bytes().into();
        ServerState {
            source,
            fingerprint,
            cache: LruCache::new(cache_capacity),
            metrics: Metrics::new(),
            archive_body,
            endpoints_body,
            scenarios_body,
            scenario_sources: Mutex::new(std::collections::BTreeMap::new()),
        }
    }

    /// The fingerprint responses are currently keyed under.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The metrics registry (exposed for tests and benches).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Resolve the source serving `/scenario/{name}/…`. The resident
    /// scenario answers from the resident source (sharing its cache
    /// slots — the bytes are the same); any other built-in scenario gets
    /// an in-memory world generated lazily at the resident configuration
    /// on first touch and kept for the server's lifetime. The map lock
    /// doubles as single-flight: two racing first requests generate once.
    /// Unknown names resolve to `None` (a 404).
    fn resolve_scenario(&self, name: &str) -> Option<(Arc<DataSource<'static>>, String)> {
        if name == self.source.scenario().name {
            return Some((Arc::clone(&self.source), self.fingerprint.clone()));
        }
        let scenario = lacnet_crisis::Scenario::builtin(name).ok()?;
        let mut map = self.scenario_sources.lock().expect("scenario source lock");
        if let Some((source, fingerprint)) = map.get(name) {
            return Some((Arc::clone(source), fingerprint.clone()));
        }
        let world: &'static lacnet_crisis::World = Box::leak(Box::new(
            lacnet_crisis::World::generate_with(*self.source.config(), scenario),
        ));
        let source = Arc::new(DataSource::in_memory(world));
        let fingerprint = source_fingerprint(&source);
        map.insert(name.to_owned(), (Arc::clone(&source), fingerprint.clone()));
        Some((source, fingerprint))
    }
}

fn json_error(status: u16, message: &str) -> Response {
    let body = Json::Obj(vec![("error".into(), Json::Str(message.into()))]).to_text();
    Response::new(status, "application/json", body.into_bytes())
}

/// Compute the response for one parsed request — the pure routing core,
/// shared by the socket workers, the unit tests and the benches.
pub fn respond(state: &ServerState, request: &Request) -> Response {
    let t0 = Instant::now();
    if request.method != "GET" {
        state
            .metrics
            .record("unmatched", Outcome::Uncached, t0.elapsed().as_secs_f64());
        return json_error(405, "only GET is supported");
    }
    match request.path.as_str() {
        "/healthz" => {
            state
                .metrics
                .record("healthz", Outcome::Uncached, t0.elapsed().as_secs_f64());
            Response::new(200, "application/json", b"{\"status\":\"ok\"}".to_vec())
        }
        "/metrics" => {
            let body = state.metrics.render();
            state
                .metrics
                .record("metrics", Outcome::Uncached, t0.elapsed().as_secs_f64());
            Response::new(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                body.into_bytes(),
            )
        }
        "/archive" => {
            state
                .metrics
                .record("archive", Outcome::Uncached, t0.elapsed().as_secs_f64());
            Response::new(200, "application/json", state.archive_body.clone())
        }
        "/endpoints" => {
            state
                .metrics
                .record("endpoints", Outcome::Uncached, t0.elapsed().as_secs_f64());
            Response::new(200, "application/json", state.endpoints_body.clone())
        }
        "/scenarios" => {
            state
                .metrics
                .record("scenarios", Outcome::Uncached, t0.elapsed().as_secs_f64());
            Response::new(200, "application/json", state.scenarios_body.clone())
        }
        path => {
            if let Some(rest) = path.strip_prefix("/scenario/") {
                let (name, sub) = match rest.split_once('/') {
                    Some((name, sub)) => (name, format!("/{sub}")),
                    None => (rest, String::new()),
                };
                let Some((source, fingerprint)) = state.resolve_scenario(name) else {
                    state.metrics.record(
                        "unmatched",
                        Outcome::Uncached,
                        t0.elapsed().as_secs_f64(),
                    );
                    return json_error(404, "no such scenario; see /scenarios");
                };
                if sub.is_empty() {
                    let s = source.scenario();
                    let body = Json::Obj(vec![
                        ("name".into(), Json::Str(s.name.clone())),
                        ("description".into(), Json::Str(s.description.clone())),
                        ("fingerprint".into(), Json::Str(fingerprint)),
                        ("default".into(), Json::Bool(s.is_default())),
                        ("backend".into(), Json::Str(source.backend().into())),
                    ])
                    .to_text();
                    state.metrics.record(
                        "scenarios",
                        Outcome::Uncached,
                        t0.elapsed().as_secs_f64(),
                    );
                    return Response::new(200, "application/json", body.into_bytes());
                }
                return route_data(state, &source, &fingerprint, &sub, &request.query, t0);
            }
            route_data(
                state,
                &state.source,
                &state.fingerprint,
                path,
                &request.query,
                t0,
            )
        }
    }
}

/// Route one data path (`/ndt/…` or a registry endpoint) against an
/// explicit source and cache-key fingerprint — the shared core of the
/// unscoped routes and the `/scenario/{name}/…` scoped ones. Scoped
/// requests pass their scenario source's own fingerprint, so their
/// responses occupy distinct LRU slots from the resident scenario's.
fn route_data(
    state: &ServerState,
    source: &Arc<DataSource<'static>>,
    fingerprint: &str,
    path: &str,
    query: &str,
    t0: Instant,
) -> Response {
    if let Some(rest) = path.strip_prefix("/ndt/") {
        return ndt_query(state, source, fingerprint, rest, query, t0);
    }
    match registry::find_by_path(path) {
        Some(endpoint) => {
            // Normalize before anything touches the query: strict
            // percent-decoding (malformed escapes are a typed 400,
            // not a silently mangled value), duplicate keys
            // resolved last-key-wins, keys sorted — so every
            // spelling of one query shares one cache slot.
            let Some(pairs) = http::normalize_query(query) else {
                state
                    .metrics
                    .record(endpoint.id, Outcome::Uncached, t0.elapsed().as_secs_f64());
                return json_error(400, "malformed percent-escape in query");
            };
            let format = pairs
                .iter()
                .find(|(k, _)| k == "format")
                .map(|(_, v)| v.as_str())
                .unwrap_or("json");
            let (content_type, tsv) = match format {
                "json" => ("application/json", false),
                "tsv" => ("text/tab-separated-values; charset=utf-8", true),
                _ => {
                    state.metrics.record(
                        endpoint.id,
                        Outcome::Uncached,
                        t0.elapsed().as_secs_f64(),
                    );
                    return json_error(400, "format must be `json` or `tsv`");
                }
            };
            let canonical: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let key = (
                endpoint.id.to_owned(),
                canonical.join("&"),
                fingerprint.to_owned(),
            );
            let (response, hit) = state.cache.get_or_compute(key, || {
                let result = (endpoint.run)(source);
                let bytes = if tsv {
                    canonical_tsv(&result).into_bytes()
                } else {
                    result_json(&result).to_text().into_bytes()
                };
                Response::new(200, content_type, bytes)
            });
            state.metrics.record(
                endpoint.id,
                if hit { Outcome::Hit } else { Outcome::Miss },
                t0.elapsed().as_secs_f64(),
            );
            response
        }
        None => {
            state
                .metrics
                .record("unmatched", Outcome::Uncached, t0.elapsed().as_secs_f64());
            json_error(404, "no such endpoint; see /endpoints")
        }
    }
}

/// The `read` object every NDT response carries: how much of the
/// backing archive the query actually touched.
fn read_stats_json(read: &lacnet_mlab::ReadStats) -> Json {
    Json::Obj(vec![
        ("blocks_total".into(), Json::Num(read.blocks_total as f64)),
        (
            "blocks_decoded".into(),
            Json::Num(read.blocks_decoded as f64),
        ),
        ("bytes_decoded".into(), Json::Num(read.bytes_decoded as f64)),
        (
            "columns_decoded".into(),
            Json::Num(read.columns_decoded as f64),
        ),
    ])
}

/// Serve the `/ndt/` prefix, both forms through one path. A path with a
/// month segment — `/ndt/{CC}/{YYYY-MM}` — is the one-month window; a
/// bare country — `/ndt/{CC}?from=YYYY-MM&to=YYYY-MM` — is a range. Either
/// way the answer is one [`DataSource::ndt_range_stats`] call: the shard
/// plan is pruned on the resident index, fanned across workers, and
/// merged in deterministic plan order; on a columnar archive only the
/// matching blocks' download column is decoded, and the response reports
/// exactly how much was touched. Results (including 404s: shard absence
/// is a property of the fingerprinted archive generation) are cached
/// under the normalized `{cc}/{from}/{to}` window, per form, so every
/// spelling of one query shares one LRU slot; malformed, reversed or
/// out-of-dataset ranges are typed 400s that never occupy a slot; backend
/// I/O errors are not cached. Lookups are single-flight: concurrent
/// requests for one cold key compute it once. Metrics count the forms
/// apart, as `ndt` and `ndt-range`.
fn ndt_query(
    state: &ServerState,
    source: &Arc<DataSource<'static>>,
    fingerprint: &str,
    rest: &str,
    query: &str,
    t0: Instant,
) -> Response {
    let month_form = rest.contains('/');
    let endpoint = if month_form { "ndt" } else { "ndt-range" };
    let (cc, from, to) = match parse_ndt_query(source, rest, query) {
        Ok(window) => window,
        Err(message) => {
            state
                .metrics
                .record(endpoint, Outcome::Uncached, t0.elapsed().as_secs_f64());
            return json_error(400, message);
        }
    };
    let key = (
        endpoint.to_owned(),
        format!("{cc}/{from}/{to}"),
        fingerprint.to_owned(),
    );
    let computed = state
        .cache
        .try_get_or_compute(key, || -> lacnet_types::Result<_> {
            let stats = source.ndt_range_stats(cc, from, to)?;
            let Some((month, m)) = stats.months.first() else {
                return Ok(json_error(
                    404,
                    if month_form {
                        "no NDT shard for that country and month"
                    } else {
                        "no NDT shards for that country in that range"
                    },
                ));
            };
            let body = if month_form {
                Json::Obj(vec![
                    ("country".into(), Json::Str(cc.to_string())),
                    ("month".into(), Json::Str(month.to_string())),
                    ("rows".into(), Json::Num(m.rows as f64)),
                    (
                        "median_download_mbps".into(),
                        m.median_download.map_or(Json::Null, Json::Num),
                    ),
                    ("format".into(), Json::Str(m.format.into())),
                    ("read".into(), read_stats_json(&m.read)),
                ])
            } else {
                let months = stats
                    .months
                    .iter()
                    .map(|(month, m)| {
                        Json::Obj(vec![
                            ("month".into(), Json::Str(month.to_string())),
                            ("rows".into(), Json::Num(m.rows as f64)),
                            (
                                "median_download_mbps".into(),
                                m.median_download.map_or(Json::Null, Json::Num),
                            ),
                            ("format".into(), Json::Str(m.format.into())),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("country".into(), Json::Str(cc.to_string())),
                    ("from".into(), Json::Str(from.to_string())),
                    ("to".into(), Json::Str(to.to_string())),
                    (
                        "months_queried".into(),
                        Json::Num(stats.months_queried as f64),
                    ),
                    (
                        "shards_pruned".into(),
                        Json::Num(stats.shards_pruned as f64),
                    ),
                    ("rows".into(), Json::Num(stats.rows as f64)),
                    (
                        "mean_monthly_median_mbps".into(),
                        stats.mean_monthly_median.map_or(Json::Null, Json::Num),
                    ),
                    ("months".into(), Json::Arr(months)),
                    ("read".into(), read_stats_json(&stats.read)),
                ])
            };
            let body = body.to_text();
            Ok(Response::new(200, "application/json", body.into_bytes()))
        });
    cached_or_500(state, endpoint, computed, t0)
}

/// Parse either `/ndt/` form into its inclusive month window. The month
/// form only has to parse: a month outside the data is answered (and
/// cached) as a 404. The range form's query string is strictly
/// normalized, so `?to=…&from=…` and percent-escaped spellings collapse
/// to one window; both months must parse, `from` must not exceed `to`,
/// and the window must intersect the dataset's NDT months.
fn parse_ndt_query(
    source: &DataSource,
    rest: &str,
    query: &str,
) -> Result<(CountryCode, MonthStamp, MonthStamp), &'static str> {
    if let Some((cc, month)) = rest.split_once('/') {
        let path_error = "ndt query path must be /ndt/{CC}/{YYYY-MM}";
        let cc = CountryCode::new(cc).map_err(|_| path_error)?;
        let month = month.parse::<MonthStamp>().map_err(|_| path_error)?;
        return Ok((cc, month, month));
    }
    let cc = CountryCode::new(rest)
        .map_err(|_| "ndt range path must be /ndt/{CC}?from=YYYY-MM&to=YYYY-MM")?;
    let pairs = http::normalize_query(query).ok_or("malformed percent-escape in query")?;
    let month_param = |key: &str| -> Option<Result<MonthStamp, ()>> {
        pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.parse::<MonthStamp>().map_err(|_| ()))
    };
    let (from, to) = match (month_param("from"), month_param("to")) {
        (Some(Ok(from)), Some(Ok(to))) => (from, to),
        (None, _) | (_, None) => {
            return Err("ndt range query needs both from=YYYY-MM and to=YYYY-MM")
        }
        _ => return Err("from/to must be YYYY-MM months"),
    };
    if from > to {
        return Err("ndt range: from month after to month");
    }
    let (first, last) = source.ndt_month_bounds();
    if to < first || from > last {
        return Err("ndt range lies outside the dataset months");
    }
    Ok((cc, from, to))
}

/// Record the outcome of a fallible single-flight lookup under
/// `endpoint`: the cached response as a hit or a miss, or the compute's
/// error as an uncached 500 (backend failures never occupy a slot).
fn cached_or_500(
    state: &ServerState,
    endpoint: &str,
    computed: Result<(Response, bool), impl std::fmt::Display>,
    t0: Instant,
) -> Response {
    let (outcome, response) = match computed {
        Ok((response, true)) => (Outcome::Hit, response),
        Ok((response, false)) => (Outcome::Miss, response),
        Err(e) => (Outcome::Uncached, json_error(500, &e.to_string())),
    };
    state
        .metrics
        .record(endpoint, outcome, t0.elapsed().as_secs_f64());
    response
}

/// Serve one accepted connection: keep-alive loop, pipelining via the
/// buffered reader, typed error responses, and one timeout bounding both
/// directions as the hang guard. Nagle's algorithm is off: a pipelined
/// response written while the previous one is still unacknowledged
/// would otherwise wait for the client's delayed ACK.
fn handle_connection(state: &ServerState, stream: TcpStream, limits: &Limits, timeout: Duration) {
    if stream.set_read_timeout(Some(timeout)).is_err()
        || stream.set_write_timeout(Some(timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        match http::read_request(&mut reader, limits) {
            Ok(request) => {
                let close = request.wants_close();
                let response = respond(state, &request);
                if response.write_to(&mut writer, close).is_err() || close {
                    return;
                }
            }
            Err(error) => {
                if let Some(status) = error.status() {
                    let _ = json_error(status, &error.to_string()).write_to(&mut writer, true);
                }
                return;
            }
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    options: ServeOptions,
    shutdown: Arc<AtomicBool>,
}

/// Remote control for a running [`Server`] — cloneable across threads.
#[derive(Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Ask the accept loop to stop; in-flight connections finish first.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // A wake-up connection unblocks the blocking `accept`.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) around a
    /// resident source. The server does not accept until [`Server::run`].
    pub fn bind(
        source: Arc<DataSource<'static>>,
        addr: &str,
        options: ServeOptions,
    ) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            state: Arc::new(ServerState::new(source, options.cache_capacity.max(1))),
            options,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (fingerprint, metrics), for tests and tooling.
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// A handle that can stop [`Server::run`] from another thread.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
            addr: self.listener.local_addr()?,
        })
    }

    /// Accept and serve until the handle asks for shutdown. Connections
    /// are fanned out to a fixed pool of scoped worker threads over an
    /// mpsc channel; every worker holds the shared state by reference.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            state,
            options,
            shutdown,
        } = self;
        let limits = Limits::default();
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Mutex::new(rx);
        std::thread::scope(|scope| {
            for _ in 0..options.threads.max(1) {
                scope.spawn(|| loop {
                    // Hold the receiver lock only while dequeuing, so the
                    // pool drains connections concurrently.
                    let conn = rx.lock().expect("pool lock").recv();
                    match conn {
                        Ok(stream) => {
                            handle_connection(&state, stream, &limits, options.read_timeout)
                        }
                        Err(_) => break,
                    }
                });
            }
            for conn in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
            }
            drop(tx);
        });
        Ok(())
    }
}

/// Compile-time proof that the shared state crosses threads safely.
#[allow(dead_code)]
fn _assert_thread_safe() {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<ServerState>();
    assert_sync::<DataSource<'static>>();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state() -> &'static ServerState {
        use std::sync::OnceLock;
        static STATE: OnceLock<ServerState> = OnceLock::new();
        STATE.get_or_init(|| {
            let source = Arc::new(DataSource::in_memory(crate::experiments::testworld::world()));
            ServerState::new(source, 8)
        })
    }

    fn get(state: &ServerState, target: &str) -> Response {
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_owned(), q.to_owned()),
            None => (target.to_owned(), String::new()),
        };
        respond(
            state,
            &Request {
                method: "GET".into(),
                path,
                query,
                http11: true,
                headers: Vec::new(),
                body: Vec::new(),
            },
        )
    }

    #[test]
    fn healthz_archive_endpoints_and_errors() {
        let state = test_state();
        assert_eq!(get(state, "/healthz").status, 200);
        let archive = get(state, "/archive");
        assert_eq!(archive.status, 200);
        let info = Json::parse(std::str::from_utf8(&archive.body).unwrap()).unwrap();
        assert_eq!(
            info.get("backend").and_then(|v| v.as_str()),
            Some("in-memory")
        );
        assert_eq!(
            info.get("fingerprint").and_then(|v| v.as_str()),
            Some(state.fingerprint())
        );
        let endpoints = get(state, "/endpoints");
        assert!(std::str::from_utf8(&endpoints.body)
            .unwrap()
            .contains("\"path\":\"/fig/11\""));
        assert_eq!(get(state, "/nope").status, 404);
        assert_eq!(get(state, "/fig/11?format=xml").status, 400);
        let post = respond(
            state,
            &Request {
                method: "POST".into(),
                path: "/healthz".into(),
                query: String::new(),
                http11: true,
                headers: Vec::new(),
                body: Vec::new(),
            },
        );
        assert_eq!(post.status, 405);
    }

    #[test]
    fn data_endpoint_serves_both_formats_through_the_cache() {
        let state = test_state();
        let tsv = get(state, "/tab01?format=tsv");
        assert_eq!(tsv.status, 200);
        assert!(tsv.content_type.starts_with("text/tab-separated-values"));
        let again = get(state, "/tab01?format=tsv");
        assert_eq!(tsv.body, again.body, "cached body is byte-identical");
        let json = get(state, "/tab01");
        assert!(json.content_type.starts_with("application/json"));
        let parsed = Json::parse(std::str::from_utf8(&json.body).unwrap()).unwrap();
        assert_eq!(parsed.get("id").and_then(|v| v.as_str()), Some("tab01"));
        // The TSV body is exactly the canonical render of the result.
        let direct = canonical_tsv(&(registry::find("tab01").unwrap().run)(&state.source));
        assert_eq!(tsv.body, direct.into_bytes());
        // Metrics saw one miss and one hit for the TSV key.
        let text = state.metrics().render();
        assert!(text.contains("lacnet_cache_hits_total{endpoint=\"tab01\"} 1"));
    }

    /// A fresh (non-shared) state, so cache and metrics counters are
    /// exactly one test's traffic.
    fn fresh_state() -> ServerState {
        let source = Arc::new(DataSource::in_memory(crate::experiments::testworld::world()));
        ServerState::new(source, 8)
    }

    #[test]
    fn query_normalization_makes_escape_spellings_share_a_cache_slot() {
        let state = fresh_state();
        // Three spellings of `format=tsv`: plain, hex-escaped, and a
        // duplicate key resolved last-wins. One compute, two hits.
        let plain = get(&state, "/fig/01?format=tsv");
        assert_eq!(plain.status, 200);
        let escaped = get(&state, "/fig/01?format=%74sv");
        let duplicated = get(&state, "/fig/01?format=json&format=tsv");
        assert!(escaped
            .content_type
            .starts_with("text/tab-separated-values"));
        assert_eq!(plain.body, escaped.body);
        assert_eq!(plain.body, duplicated.body);
        let text = state.metrics().render();
        assert!(
            text.contains("lacnet_cache_misses_total{endpoint=\"fig01\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("lacnet_cache_hits_total{endpoint=\"fig01\"} 2"),
            "{text}"
        );
        // A malformed escape is a typed 400, not a mangled cache key.
        let bad = get(&state, "/fig/01?format=%zzv");
        assert_eq!(bad.status, 400);
        assert!(std::str::from_utf8(&bad.body)
            .unwrap()
            .contains("percent-escape"));
    }

    #[test]
    fn ndt_query_routes_through_the_source_and_caches() {
        use lacnet_types::country;
        let state = fresh_state();
        let (month, median) = state
            .source
            .mlab()
            .median_series(country::VE)
            .last()
            .expect("test world has VE data");
        let ok = get(&state, &format!("/ndt/VE/{month}"));
        assert_eq!(ok.status, 200, "{:?}", String::from_utf8_lossy(&ok.body));
        let body = Json::parse(std::str::from_utf8(&ok.body).unwrap()).unwrap();
        assert_eq!(body.get("country").and_then(|v| v.as_str()), Some("VE"));
        assert_eq!(
            body.get("month").and_then(|v| v.as_str()),
            Some(month.to_string().as_str())
        );
        assert_eq!(
            body.get("format").and_then(|v| v.as_str()),
            Some("in-memory")
        );
        assert!(body.get("rows").and_then(|v| v.as_f64()).unwrap() > 0.0);
        assert_eq!(
            body.get("median_download_mbps").and_then(|v| v.as_f64()),
            Some(median)
        );
        // The repeat is a cache hit serving identical bytes.
        let again = get(&state, &format!("/ndt/VE/{month}"));
        assert_eq!(ok.body, again.body);
        let text = state.metrics().render();
        assert!(
            text.contains("lacnet_cache_hits_total{endpoint=\"ndt\"} 1"),
            "{text}"
        );
        // Absent month → 404; malformed country or month → 400.
        assert_eq!(get(&state, "/ndt/VE/1805-12").status, 404);
        assert_eq!(get(&state, "/ndt/VEN/2020-01").status, 400);
        assert_eq!(get(&state, "/ndt/VE/whenever").status, 400);
        assert_eq!(get(&state, "/ndt/VE").status, 400);
    }

    #[test]
    fn ndt_range_query_validates_normalizes_and_caches() {
        use lacnet_types::country;
        let state = fresh_state();
        let series: Vec<_> = state
            .source
            .mlab()
            .median_series(country::VE)
            .iter()
            .collect();
        assert!(series.len() >= 4, "test world spans years");
        let (from, _) = series[series.len() - 4];
        let (to, _) = *series.last().unwrap();

        let ok = get(&state, &format!("/ndt/VE?from={from}&to={to}"));
        assert_eq!(ok.status, 200, "{:?}", String::from_utf8_lossy(&ok.body));
        let body = Json::parse(std::str::from_utf8(&ok.body).unwrap()).unwrap();
        assert_eq!(body.get("country").and_then(|v| v.as_str()), Some("VE"));
        assert_eq!(
            body.get("from").and_then(|v| v.as_str()),
            Some(from.to_string().as_str())
        );
        assert_eq!(
            body.get("months_queried").and_then(|v| v.as_f64()),
            Some(4.0)
        );
        assert!(body.get("rows").and_then(|v| v.as_f64()).unwrap() > 0.0);
        let months = match body.get("months") {
            Some(Json::Arr(rows)) => rows.clone(),
            other => panic!("months must be an array, got {other:?}"),
        };
        assert_eq!(months.len(), 4);
        // The range body agrees with the single-month endpoint per month.
        for m in &months {
            let month = m.get("month").and_then(|v| v.as_str()).unwrap().to_owned();
            let single = get(&state, &format!("/ndt/VE/{month}"));
            let single = Json::parse(std::str::from_utf8(&single.body).unwrap()).unwrap();
            assert_eq!(
                m.get("rows").and_then(|v| v.as_f64()),
                single.get("rows").and_then(|v| v.as_f64()),
                "{month}"
            );
            assert_eq!(
                m.get("median_download_mbps").and_then(|v| v.as_f64()),
                single.get("median_download_mbps").and_then(|v| v.as_f64()),
                "{month}"
            );
        }

        // Reordered and percent-escaped spellings of the same window are
        // cache hits serving identical bytes — one slot, not three.
        let reordered = get(&state, &format!("/ndt/VE?to={to}&from={from}"));
        assert_eq!(ok.body, reordered.body);
        let escaped = get(&state, &format!("/ndt/VE?from={from}&%74o={to}"));
        assert_eq!(ok.body, escaped.body);
        let text = state.metrics().render();
        assert!(
            text.contains("lacnet_cache_misses_total{endpoint=\"ndt-range\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("lacnet_cache_hits_total{endpoint=\"ndt-range\"} 2"),
            "{text}"
        );

        // Typed 400s: reversed, out-of-dataset, missing or malformed
        // months, malformed escapes, malformed country.
        assert_eq!(
            get(&state, &format!("/ndt/VE?from={to}&to={from}")).status,
            400
        );
        assert_eq!(get(&state, "/ndt/VE?from=1805-01&to=1806-01").status, 400);
        assert_eq!(get(&state, "/ndt/VE?from=2020-01").status, 400);
        assert_eq!(get(&state, "/ndt/VE?to=2020-01").status, 400);
        assert_eq!(get(&state, "/ndt/VE?from=whenever&to=2020-01").status, 400);
        assert_eq!(get(&state, "/ndt/VE?from=%zz&to=2020-01").status, 400);
        assert_eq!(get(&state, "/ndt/VEN?from=2020-01&to=2020-02").status, 400);
        // None of the rejects computed or occupied a cache slot.
        let text = state.metrics().render();
        assert!(
            text.contains("lacnet_cache_misses_total{endpoint=\"ndt-range\"} 1"),
            "{text}"
        );
    }
}
