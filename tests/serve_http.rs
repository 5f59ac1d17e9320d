//! End-to-end HTTP harness for `lacnet-serve`: a real server on an
//! ephemeral port, against a real dumped archive, exercised with raw
//! `TcpStream` requests — no HTTP client dependency anywhere.
//!
//! Covers the serving tentpole from the outside: every registry
//! endpoint's `?format=tsv` body must byte-match its checked-in golden
//! fixture (so serving is provably the same computation as the batch
//! report), `/metrics` must show a hit ratio above zero under repeated
//! traffic, a concurrent hammer on each kind of cached route must compute
//! it exactly once, replies must not wait for a TCP delayed ACK, and
//! malformed requests or clients that never read must come back as
//! typed 4xx responses or dropped connections — never a hang, never a
//! pinned worker.

use lacnet::core::serve::{ServeOptions, Server, ServerHandle};
use lacnet::core::{datasets, registry, DataSource};
use lacnet::crisis::{World, WorldConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Dump the fixed-seed test world once and keep the archive-backed
/// source for every server instance in the binary.
fn archive_source() -> Arc<DataSource<'static>> {
    static SOURCE: OnceLock<Arc<DataSource<'static>>> = OnceLock::new();
    Arc::clone(SOURCE.get_or_init(|| {
        let world = World::generate(WorldConfig::test());
        let dir = std::env::temp_dir().join(format!("lacnet-serve-{}", std::process::id()));
        datasets::dump(&world, &dir).expect("dump succeeds");
        Arc::new(DataSource::from_archive(&dir).expect("archive loads"))
    }))
}

/// Boot a server on an ephemeral port; the accept loop runs on its own
/// thread until the handle shuts it down.
fn boot(options: ServeOptions) -> (SocketAddr, ServerHandle) {
    let server = Server::bind(archive_source(), "127.0.0.1:0", options).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle().expect("handle");
    std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// The shared long-lived server most tests talk to.
fn shared_server() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| boot(ServeOptions::default()).0)
}

/// Read exactly one HTTP/1.1 response (status, headers, content-length
/// body) off a buffered socket — leaves the stream positioned at the
/// next pipelined response.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut headers = Vec::new();
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).expect("header line");
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        let (name, value) = h.split_once(':').expect("header colon");
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }
    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse().expect("content-length"))
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).expect("body");
    (status, headers, body)
}

/// One full GET over a fresh connection.
fn http_get(addr: SocketAddr, target: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"
    )
    .expect("request");
    read_response(&mut BufReader::new(stream))
}

/// Send raw bytes over a fresh connection and return the status of the
/// (single) response, panicking rather than hanging if the server goes
/// quiet for more than the client timeout.
fn raw_status(addr: SocketAddr, bytes: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(bytes).expect("request");
    let (status, _, _) = read_response(&mut BufReader::new(stream));
    status
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn every_endpoint_byte_matches_its_golden_fixture() {
    let addr = shared_server();
    for endpoint in &registry::ENDPOINTS {
        let (status, headers, body) =
            http_get(addr, &format!("{}?format=tsv", endpoint.http_path()));
        assert_eq!(status, 200, "{}", endpoint.id);
        assert!(
            headers
                .iter()
                .any(|(n, v)| n == "content-type" && v.starts_with("text/tab-separated-values")),
            "{}: content type {headers:?}",
            endpoint.id
        );
        let golden = std::fs::read(fixture_dir().join(format!("{}.tsv", endpoint.id)))
            .unwrap_or_else(|_| panic!("no golden fixture for {}", endpoint.id));
        assert_eq!(
            body, golden,
            "{}: served TSV diverges from tests/golden/{}.tsv",
            endpoint.id, endpoint.id
        );
    }
}

#[test]
fn registry_covers_every_golden_fixture_file() {
    // The registry is the single source of truth for artifact naming;
    // a fixture on disk without a route (or vice versa) is drift.
    let mut fixtures: Vec<String> = std::fs::read_dir(fixture_dir())
        .expect("golden dir")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            Some(name.strip_suffix(".tsv")?.to_owned())
        })
        .collect();
    fixtures.sort();
    let mut ids: Vec<String> = registry::ENDPOINTS
        .iter()
        .map(|e| e.id.to_owned())
        .collect();
    ids.sort();
    assert_eq!(fixtures, ids, "golden fixtures and registry diverged");
}

#[test]
fn json_is_the_default_format_and_parses() {
    let addr = shared_server();
    let (status, headers, body) = http_get(addr, "/fig/11");
    assert_eq!(status, 200);
    assert!(headers
        .iter()
        .any(|(n, v)| n == "content-type" && v.starts_with("application/json")));
    let json =
        lacnet::types::json::Json::parse(std::str::from_utf8(&body).expect("utf8")).expect("json");
    assert_eq!(json.get("id").and_then(|v| v.as_str()), Some("fig11"));
    assert!(json.get("findings").is_some());
    assert!(json.get("artifacts").is_some());
}

#[test]
fn health_archive_and_endpoint_listing() {
    let addr = shared_server();
    let (status, _, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, b"{\"status\":\"ok\"}");

    let (status, _, body) = http_get(addr, "/archive");
    assert_eq!(status, 200);
    let info =
        lacnet::types::json::Json::parse(std::str::from_utf8(&body).expect("utf8")).expect("json");
    assert_eq!(
        info.get("backend").and_then(|v| v.as_str()),
        Some("archive")
    );
    let fp = info
        .get("fingerprint")
        .and_then(|v| v.as_str())
        .expect("fingerprint");
    assert_eq!(fp.len(), 16, "fnv64 hex fingerprint: {fp}");
    assert_eq!(
        info.get("endpoints").and_then(|v| v.as_f64()),
        Some(registry::ENDPOINTS.len() as f64)
    );

    let (status, _, body) = http_get(addr, "/endpoints");
    assert_eq!(status, 200);
    let text = std::str::from_utf8(&body).expect("utf8");
    for endpoint in &registry::ENDPOINTS {
        assert!(text.contains(&endpoint.http_path()), "{}", endpoint.id);
    }

    let (status, _, _) = http_get(addr, "/no/such/route");
    assert_eq!(status, 404);
    let (status, _, _) = http_get(addr, "/tab01?format=xml");
    assert_eq!(status, 400);
}

#[test]
fn metrics_report_a_positive_hit_ratio_under_repeated_traffic() {
    let addr = shared_server();
    // Five requests: enough to warm the P² latency sketch past its
    // initialization threshold, so the quantile series is exposed.
    for _ in 0..5 {
        let (status, _, _) = http_get(addr, "/fig/01?format=tsv");
        assert_eq!(status, 200);
    }
    let (status, _, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let text = std::str::from_utf8(&body).expect("utf8");
    let ratio: f64 = text
        .lines()
        .find(|l| l.starts_with("lacnet_cache_hit_ratio "))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .expect("hit ratio exposed");
    assert!(ratio > 0.0, "hit ratio {ratio} after repeated requests");
    assert!(text.contains("lacnet_requests_total{endpoint=\"fig01\"}"));
    assert!(text.contains("lacnet_request_latency_seconds{endpoint=\"fig01\",quantile=\"0.5\"}"));
}

/// `clients` concurrent GETs of `target`, each on its own connection,
/// released together once every connection is open. Returns the bodies.
fn hammer(addr: SocketAddr, target: &str, clients: usize) -> Vec<Vec<u8>> {
    let start = std::sync::Barrier::new(clients);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let start = &start;
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .expect("timeout");
                    start.wait();
                    write!(
                        stream,
                        "GET {target} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"
                    )
                    .expect("request");
                    let (status, _, body) = read_response(&mut BufReader::new(stream));
                    assert_eq!(status, 200, "{target}: {}", String::from_utf8_lossy(&body));
                    body
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client"))
            .collect()
    })
}

#[test]
fn concurrent_hammer_computes_once_and_serves_identical_bodies() {
    // A dedicated server instance: its cache and metrics start cold, so
    // the counters below are exactly this test's traffic. One worker per
    // client, so every request can be in flight at once.
    const CLIENTS: usize = 8;
    let (addr, handle) = boot(ServeOptions {
        threads: CLIENTS,
        ..ServeOptions::default()
    });
    let source = archive_source();
    let series: Vec<_> = source
        .mlab()
        .median_series(lacnet::types::country::VE)
        .iter()
        .collect();
    let (from, _) = series[0];
    let (to, _) = *series.last().expect("test world has VE data");
    // Every cached route: a registry endpoint and both `/ndt` forms.
    for (endpoint, target) in [
        ("tab01", "/tab01?format=tsv".to_owned()),
        ("ndt", format!("/ndt/VE/{to}")),
        ("ndt-range", format!("/ndt/VE?from={from}&to={to}")),
    ] {
        let bodies = hammer(addr, &target, CLIENTS);
        for body in &bodies[1..] {
            assert_eq!(body, &bodies[0], "{target}: concurrent responses diverged");
        }
        let (_, _, metrics) = http_get(addr, "/metrics");
        let text = std::str::from_utf8(&metrics).expect("utf8");
        assert!(
            text.contains(&format!(
                "lacnet_requests_total{{endpoint=\"{endpoint}\"}} {CLIENTS}"
            )),
            "{text}"
        );
        // Single flight: exactly one compute; every other client waited
        // on the in-flight slot and counts as a hit.
        assert!(
            text.contains(&format!(
                "lacnet_cache_misses_total{{endpoint=\"{endpoint}\"}} 1"
            )),
            "{target}: {text}"
        );
        assert!(
            text.contains(&format!(
                "lacnet_cache_hits_total{{endpoint=\"{endpoint}\"}} {}",
                CLIENTS - 1
            )),
            "{target}: {text}"
        );
    }
    handle.shutdown();
}

#[test]
fn malformed_requests_get_typed_errors_not_hangs() {
    let addr = shared_server();
    assert_eq!(raw_status(addr, b"GARBAGE\r\n\r\n"), 400);
    assert_eq!(raw_status(addr, b"GET /healthz HTTP/9.9\r\n\r\n"), 400);
    assert_eq!(raw_status(addr, b"GET healthz HTTP/1.1\r\n\r\n"), 400);

    let long_uri = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(10_000));
    assert_eq!(raw_status(addr, long_uri.as_bytes()), 414);

    let fat_header = format!(
        "GET /healthz HTTP/1.1\r\nx-pad: {}\r\n\r\n",
        "y".repeat(40_000)
    );
    assert_eq!(raw_status(addr, fat_header.as_bytes()), 431);

    let many_headers = format!(
        "GET /healthz HTTP/1.1\r\n{}\r\n",
        (0..200)
            .map(|i| format!("x-{i}: v\r\n"))
            .collect::<String>()
    );
    assert_eq!(raw_status(addr, many_headers.as_bytes()), 431);

    let huge_body = b"POST /healthz HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n";
    assert_eq!(raw_status(addr, huge_body), 413);
}

#[test]
fn truncated_body_times_out_as_bad_request_instead_of_hanging() {
    // A server with a short read timeout: the client promises 100 bytes,
    // sends 3, and goes quiet. The read deadline must convert that into
    // a typed 400 rather than a parked worker.
    let (addr, handle) = boot(ServeOptions {
        read_timeout: Duration::from_millis(200),
        ..ServeOptions::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\ncontent-length: 100\r\n\r\nabc")
        .expect("request");
    let started = std::time::Instant::now();
    let (status, _, _) = read_response(&mut BufReader::new(stream));
    assert_eq!(status, 400);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "server sat on a truncated body for {:?}",
        started.elapsed()
    );
    handle.shutdown();
}

#[test]
fn keep_alive_connection_serves_pipelined_requests() {
    let addr = shared_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n\
              GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
        )
        .expect("pipelined requests");
    let mut reader = BufReader::new(stream);
    let (first, _, body1) = read_response(&mut reader);
    let (second, _, body2) = read_response(&mut reader);
    assert_eq!((first, second), (200, 200));
    assert_eq!(body1, body2);
    // The close-marked response ends the connection.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty());
}

#[test]
fn conflicting_content_lengths_are_rejected_on_the_wire() {
    let addr = shared_server();
    // Disagreeing Content-Length declarations — across fields or inside
    // one comma-folded list — are the request-smuggling vector; the
    // server answers 400 instead of picking one framing.
    assert_eq!(
        raw_status(
            addr,
            b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: 5\r\n\r\n"
        ),
        400
    );
    assert_eq!(
        raw_status(
            addr,
            b"GET /healthz HTTP/1.1\r\ncontent-length: 0, 5\r\n\r\n"
        ),
        400
    );
    // Agreeing duplicates frame one body and the request goes through.
    assert_eq!(
        raw_status(
            addr,
            b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: 0\r\nconnection: close\r\n\r\n"
        ),
        200
    );
}

#[test]
fn query_spellings_normalize_on_the_wire() {
    let addr = shared_server();
    // Escaped, duplicated and plain spellings of `format=tsv` serve the
    // identical body; a malformed escape is a typed 400.
    let (status, _, plain) = http_get(addr, "/fig/02?format=tsv");
    assert_eq!(status, 200);
    let (status, headers, escaped) = http_get(addr, "/fig/02?format=%74sv");
    assert_eq!(status, 200);
    assert!(headers
        .iter()
        .any(|(n, v)| n == "content-type" && v.starts_with("text/tab-separated-values")));
    assert_eq!(plain, escaped);
    let (status, _, duplicated) = http_get(addr, "/fig/02?format=json&format=tsv");
    assert_eq!(status, 200);
    assert_eq!(plain, duplicated);
    let (status, _, _) = http_get(addr, "/fig/02?format=%zzv");
    assert_eq!(status, 400);
}

#[test]
fn ndt_month_query_serves_selective_read_stats() {
    let addr = shared_server();
    // Pick a real (VE, month) label off the archive's shard index.
    let source = archive_source();
    let (month, _) = source
        .mlab()
        .median_series(lacnet::types::country::VE)
        .last()
        .expect("test world has VE data");
    let (status, headers, body) = http_get(addr, &format!("/ndt/VE/{month}"));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert!(headers
        .iter()
        .any(|(n, v)| n == "content-type" && v.starts_with("application/json")));
    let json =
        lacnet::types::json::Json::parse(std::str::from_utf8(&body).expect("utf8")).expect("json");
    assert_eq!(json.get("country").and_then(|v| v.as_str()), Some("VE"));
    assert!(json.get("rows").and_then(|v| v.as_f64()).unwrap() > 0.0);
    // The archive serves the dumped tree's native format and reports
    // what the read touched.
    let fmt = json.get("format").and_then(|v| v.as_str()).expect("format");
    assert!(
        fmt == "text" || fmt.starts_with("columnar"),
        "unexpected backing format {fmt}"
    );
    assert!(json.get("read").is_some());
    // The repeat serves byte-identical cached bytes.
    let (_, _, again) = http_get(addr, &format!("/ndt/VE/{month}"));
    assert_eq!(body, again);
    // Absent months are 404s, malformed paths 400s — typed, never hangs.
    let (status, _, _) = http_get(addr, "/ndt/VE/1805-12");
    assert_eq!(status, 404);
    let (status, _, _) = http_get(addr, "/ndt/VE/whenever");
    assert_eq!(status, 400);
    let (status, _, _) = http_get(addr, "/ndt/VEN/2020-01");
    assert_eq!(status, 400);
}

#[test]
fn ndt_range_query_on_the_wire_is_byte_stable_and_shares_cache_slots() {
    // A dedicated server: the ndt-range counters below are exactly this
    // test's traffic.
    let (addr, handle) = boot(ServeOptions::default());
    let source = archive_source();
    let series: Vec<_> = source
        .mlab()
        .median_series(lacnet::types::country::VE)
        .iter()
        .collect();
    assert!(series.len() >= 3, "test world spans months");
    let (from, _) = series[series.len() - 3];
    let (to, _) = *series.last().unwrap();

    let (status, headers, body) = http_get(addr, &format!("/ndt/VE?from={from}&to={to}"));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert!(headers
        .iter()
        .any(|(n, v)| n == "content-type" && v.starts_with("application/json")));
    let json =
        lacnet::types::json::Json::parse(std::str::from_utf8(&body).expect("utf8")).expect("json");
    assert_eq!(json.get("country").and_then(|v| v.as_str()), Some("VE"));
    assert_eq!(
        json.get("months_queried").and_then(|v| v.as_f64()),
        Some(3.0)
    );
    assert!(json.get("rows").and_then(|v| v.as_f64()).unwrap() > 0.0);
    assert!(json.get("months").is_some());
    assert!(json.get("read").is_some());

    // Repeats and every spelling of the window — reordered keys,
    // percent-escaped key — serve byte-identical bytes from ONE slot.
    let (_, _, again) = http_get(addr, &format!("/ndt/VE?from={from}&to={to}"));
    assert_eq!(body, again, "range response not byte-stable");
    let (_, _, reordered) = http_get(addr, &format!("/ndt/VE?to={to}&from={from}"));
    assert_eq!(body, reordered);
    let (_, _, escaped) = http_get(addr, &format!("/ndt/VE?from={from}&%74o={to}"));
    assert_eq!(body, escaped);
    let (_, _, metrics) = http_get(addr, "/metrics");
    let text = std::str::from_utf8(&metrics).expect("utf8");
    assert!(
        text.contains("lacnet_cache_misses_total{endpoint=\"ndt-range\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("lacnet_cache_hits_total{endpoint=\"ndt-range\"} 3"),
        "{text}"
    );

    // Reversed, out-of-dataset, incomplete and malformed ranges are
    // typed 400s on the wire.
    for bad in [
        format!("/ndt/VE?from={to}&to={from}"),
        "/ndt/VE?from=1805-01&to=1806-01".to_owned(),
        "/ndt/VE?from=2020-01".to_owned(),
        "/ndt/VE?from=whenever&to=2020-01".to_owned(),
        "/ndt/VE?from=%zz&to=2020-01".to_owned(),
        "/ndt/VEN?from=2020-01&to=2020-02".to_owned(),
    ] {
        let (status, _, _) = http_get(addr, &bad);
        assert_eq!(status, 400, "{bad}");
    }
    handle.shutdown();
}

#[test]
fn scenarios_inventory_lists_every_builtin() {
    let addr = shared_server();
    let (status, headers, body) = http_get(addr, "/scenarios");
    assert_eq!(status, 200);
    assert!(headers
        .iter()
        .any(|(n, v)| n == "content-type" && v.starts_with("application/json")));
    let text = std::str::from_utf8(&body).expect("utf8");
    lacnet::types::json::Json::parse(text).expect("inventory is valid json");
    for name in lacnet::crisis::Scenario::builtin_names() {
        assert!(text.contains(&format!("\"name\":\"{name}\"")), "{text}");
    }
    // Exactly one scenario is the paper's default storyline, and it is
    // the one the resident archive was dumped under.
    assert_eq!(text.matches("\"default\":true").count(), 1, "{text}");
    assert_eq!(text.matches("\"resident\":true").count(), 1, "{text}");

    // The bare scenario path serves an info body for the same name.
    let (status, _, body) = http_get(addr, "/scenario/venezuela");
    assert_eq!(status, 200);
    let info =
        lacnet::types::json::Json::parse(std::str::from_utf8(&body).expect("utf8")).expect("json");
    assert_eq!(info.get("name").and_then(|v| v.as_str()), Some("venezuela"));
    assert_eq!(info.get("default").and_then(|v| v.as_bool()), Some(true));
}

#[test]
fn unknown_scenario_is_a_typed_404() {
    let addr = shared_server();
    let (status, _, body) = http_get(addr, "/scenario/atlantis/fig/01");
    assert_eq!(status, 404);
    assert!(String::from_utf8_lossy(&body).contains("/scenarios"));
    let (status, _, _) = http_get(addr, "/scenario/atlantis");
    assert_eq!(status, 404);
}

#[test]
fn scenario_scoped_routes_get_their_own_cache_slots() {
    // A dedicated server so the metrics below are exactly this traffic.
    let (addr, handle) = boot(ServeOptions::default());

    // The resident scenario name routes to the resident source: bytes
    // must match the unscoped route exactly.
    let (status, _, scoped) = http_get(addr, "/scenario/venezuela/fig/01?format=tsv");
    assert_eq!(status, 200);
    let (_, _, unscoped) = http_get(addr, "/fig/01?format=tsv");
    assert_eq!(
        scoped, unscoped,
        "resident-scenario route diverged from the unscoped route"
    );

    // A non-resident builtin lazily generates its own world; the cable
    // cut rewrites the cables figure but leaves the economy untouched.
    let (status, _, cut_fig04) = http_get(addr, "/scenario/cable-cut/fig/04?format=tsv");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&cut_fig04));
    let (_, _, base_fig04) = http_get(addr, "/fig/04?format=tsv");
    assert_ne!(
        cut_fig04, base_fig04,
        "cable-cut scenario served the default cables figure"
    );
    let (_, _, cut_again) = http_get(addr, "/scenario/cable-cut/fig/04?format=tsv");
    assert_eq!(cut_fig04, cut_again, "scenario-scoped cache not stable");

    // Distinct fingerprints mean distinct LRU slots: the scoped and
    // unscoped fig04 requests were both cold misses, and the repeat was
    // a hit on the scenario's own slot.
    let (_, _, metrics) = http_get(addr, "/metrics");
    let text = std::str::from_utf8(&metrics).expect("utf8");
    assert!(
        text.contains("lacnet_cache_misses_total{endpoint=\"fig04\"} 2"),
        "{text}"
    );
    assert!(
        text.contains("lacnet_cache_hits_total{endpoint=\"fig04\"} 1"),
        "{text}"
    );
    handle.shutdown();
}

#[test]
fn post_is_rejected_with_405() {
    let addr = shared_server();
    assert_eq!(
        raw_status(addr, b"POST /healthz HTTP/1.1\r\ncontent-length: 0\r\n\r\n"),
        405
    );
}

/// The median of `samples`.
fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

#[test]
fn keep_alive_round_trips_do_not_wait_for_delayed_acks() {
    // A reply written in two pieces, or a pipelined reply queued behind
    // an unacknowledged one, waits for the client's delayed ACK: about
    // 40 ms on Linux. A `/healthz` round trip on loopback is well under
    // a millisecond, so a median above 20 ms means the stall is back.
    let addr = shared_server();
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let request = b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n";

    let sequential: Vec<Duration> = (0..21)
        .map(|_| {
            let sent = std::time::Instant::now();
            writer.write_all(request).expect("request");
            assert_eq!(read_response(&mut reader).0, 200);
            sent.elapsed()
        })
        .collect();
    let pipelined: Vec<Duration> = (0..10)
        .map(|_| {
            let sent = std::time::Instant::now();
            writer.write_all(&request.repeat(2)).expect("requests");
            assert_eq!(read_response(&mut reader).0, 200);
            assert_eq!(read_response(&mut reader).0, 200);
            sent.elapsed()
        })
        .collect();
    let (sequential, pipelined) = (median(sequential), median(pipelined));
    assert!(
        sequential < Duration::from_millis(20),
        "sequential round trip median {sequential:?}"
    );
    assert!(
        pipelined < Duration::from_millis(20),
        "pipelined pair median {pipelined:?}"
    );
}

#[test]
fn a_client_that_never_reads_cannot_pin_the_only_worker() {
    // One worker and a short timeout. Client A pipelines far more large
    // responses than the socket buffers hold and never reads them, so
    // the worker's write blocks; the write timeout must drop A and free
    // the worker for client B.
    let (addr, handle) = boot(ServeOptions {
        threads: 1,
        read_timeout: Duration::from_millis(300),
        ..ServeOptions::default()
    });
    // Computed once up front, so the clock below times only the stall.
    let (status, _, body) = http_get(addr, "/fig/13?format=tsv");
    assert_eq!(status, 200);
    assert!(body.len() > 100_000, "fig13 body is {} bytes", body.len());
    let mut greedy = TcpStream::connect(addr).expect("connect");
    greedy
        .write_all(&b"GET /fig/13?format=tsv HTTP/1.1\r\nhost: t\r\n\r\n".repeat(64))
        .expect("pipelined requests");

    let started = std::time::Instant::now();
    let mut polite = TcpStream::connect(addr).expect("connect");
    polite
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    polite
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .expect("request");
    let (status, _, _) = read_response(&mut BufReader::new(polite));
    assert_eq!(status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "a reader-less client held the worker for {:?}",
        started.elapsed()
    );
    drop(greedy);
    handle.shutdown();
}
