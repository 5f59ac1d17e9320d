//! The seeded request streams of the two serve workloads, with the
//! expected answer of every request, computed by calling the library
//! directly on the source the server holds.
//!
//! * `hot`: every route the warm server answers without computing: the
//!   25 registry routes in JSON and TSV, `/healthz` and `/metrics`, each
//!   exactly once per round, in an order the seed shuffles anew every
//!   round. No request log ranks the routes, so every route gets the
//!   same share and the mix of body sizes is the same for every seed.
//! * `ndt`: single-month `/ndt/{CC}/{YYYY-MM}` and range
//!   `/ndt/{CC}?from=&to=` queries over every LACNIC country and NDT
//!   month, ranges about half, 3 to 60 months long, and a few percent of
//!   malformed or reversed ranges that must get their typed 400.

use crate::client;
use crate::trace::Tracer;
use lacnet_core::render::{canonical_tsv, result_json};
use lacnet_core::{registry, DataSource};
use lacnet_mlab::ReadStats;
use lacnet_types::json::Json;
use lacnet_types::rng::Rng;
use lacnet_types::{country, CountryCode, MonthStamp};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

/// Requests in each connection's stream (the hot stream rounds it down
/// to whole rounds); a connection cycles its stream. The NDT stream's
/// reuse distance is far beyond the 128-slot response cache, so NDT
/// keys keep missing when a stream wraps.
pub const STREAM_LEN: usize = 4096;

/// The experiments with the largest bodies.
const LARGE_BODIES: [&str; 3] = ["fig13", "fig11", "fig04"];

/// Share of malformed NDT requests, and of ranges among the rest.
const NDT_BAD_SHARE: f64 = 0.03;
const NDT_RANGE_SHARE: f64 = 0.5;

/// What a correct response to one request looks like.
#[derive(Clone)]
pub enum Expect {
    /// Exactly these body bytes with status 200.
    Body(Arc<Vec<u8>>),
    /// `/healthz`.
    Healthz,
    /// `/metrics`: a 200 carrying the Prometheus exposition.
    Metrics,
    /// An NDT answer: status 200 with these rows and this median (the
    /// mean of monthly medians for a range), or 404.
    Ndt { rows: usize, median: Option<f64> },
    /// A status with no body check (the typed 400s and 404s).
    Status(u16),
}

pub struct Req {
    pub target: String,
    pub bytes: Vec<u8>,
    pub expect: Expect,
}

/// The 50 cacheable registry keys, each with its endpoint's id and the
/// body a direct run of the endpoint renders.
pub struct HotReference {
    pub keys: Vec<(&'static str, String, Arc<Vec<u8>>)>,
}

/// Run every endpoint directly on `source` and render both formats.
pub fn hot_reference(source: &DataSource) -> HotReference {
    let rendered = lacnet_types::sweep::parallel_map(&registry::ENDPOINTS, |e| {
        let result = (e.run)(source);
        (
            (e.id, canonical_tsv(&result)),
            result_json(&result).to_text().into_bytes(),
        )
    });
    let (tsv, json): (Vec<_>, Vec<_>) = rendered.into_iter().unzip();
    HotReference::from_rendered(&tsv, json)
}

impl HotReference {
    /// The reference from the TSV and JSON renders of every endpoint's
    /// result, in registry order.
    pub fn from_rendered(tsv: &[(&'static str, String)], json: Vec<Vec<u8>>) -> HotReference {
        let mut keys: Vec<_> = registry::ENDPOINTS
            .iter()
            .zip(json)
            .map(|(e, body)| (e.id, e.http_path(), Arc::new(body)))
            .collect();
        keys.extend(registry::ENDPOINTS.iter().zip(tsv).map(|(e, (_, body))| {
            (
                e.id,
                format!("{}?format=tsv", e.http_path()),
                Arc::new(body.clone().into_bytes()),
            )
        }));
        HotReference { keys }
    }
}

/// One connection's hot stream: whole rounds over every hot route, each
/// round in a fresh seeded order.
pub fn hot_stream(reference: &HotReference, seed: u64, conn: usize) -> Vec<Req> {
    let mut rng = Rng::seeded(seed).fork(&format!("perfbench/hot/{conn}"));
    let mut routes: Vec<(String, Expect)> = reference
        .keys
        .iter()
        .map(|(_, target, body)| (target.clone(), Expect::Body(Arc::clone(body))))
        .collect();
    routes.push(("/healthz".into(), Expect::Healthz));
    routes.push(("/metrics".into(), Expect::Metrics));
    let mut stream = Vec::with_capacity(STREAM_LEN);
    for _ in 0..STREAM_LEN / routes.len() {
        rng.shuffle(&mut routes);
        stream.extend(routes.iter().map(|(target, expect)| Req {
            bytes: client::get(target),
            target: target.clone(),
            expect: expect.clone(),
        }));
    }
    stream
}

/// The hot mix, for the report: routes, mean body and the share of
/// requests that go to the largest bodies.
pub fn hot_mix_note(reference: &HotReference) -> String {
    let routes = reference.keys.len() + 2;
    let bytes: usize = reference.keys.iter().map(|(_, _, b)| b.len()).sum();
    let large = reference
        .keys
        .iter()
        .filter(|(id, _, _)| LARGE_BODIES.contains(id))
        .count();
    format!(
        "serve-hot mix: {routes} routes, each 1/{routes} of requests (mean registry body {:.1} KB); \
         {} (JSON and TSV) take {:.1}%",
        bytes as f64 / reference.keys.len() as f64 / 1e3,
        LARGE_BODIES.join(", "),
        100.0 * large as f64 / routes as f64
    )
}

/// Direct-call accounting over an NDT stream's expectations.
#[derive(Default)]
pub struct NdtProbe {
    pub month_queries: usize,
    pub range_queries: usize,
    pub read: ReadStats,
    pub months_queried: usize,
    pub shards_opened: usize,
    pub shards_pruned: usize,
}

/// One connection's NDT stream, with expectations from direct
/// `ndt_month_stats` / `ndt_range_stats` calls on `source`, each timed
/// in a `source.ndt_month` or `source.ndt_range` span.
pub fn ndt_stream(
    source: &DataSource,
    seed: u64,
    conn: usize,
    tracer: &mut Tracer,
    probe: &mut NdtProbe,
) -> Result<Vec<Req>, String> {
    let mut rng = Rng::seeded(seed).fork(&format!("perfbench/ndt/{conn}"));
    let countries: Vec<CountryCode> = country::lacnic_codes().collect();
    let (first, last) = source.ndt_month_bounds();
    let span = first.months_until(last);
    let month_at = |offset: i32| MonthStamp::from_index(first.index() + offset);
    let mut stream = Vec::with_capacity(STREAM_LEN);
    for i in 0..STREAM_LEN {
        let cc = countries[rng.below(countries.len() as u64) as usize];
        let r = rng.f64();
        let (target, expect) = if r < NDT_BAD_SHARE {
            let month = month_at(rng.below(span as u64) as i32);
            let target = match rng.below(3) {
                0 => format!("/ndt/{cc}?from={}&to={month}", month.plus(1)),
                1 => format!("/ndt/{cc}/{}-13", month.year()),
                _ => format!("/ndt/{cc}?from={month}"),
            };
            (target, Expect::Status(400))
        } else if r < NDT_BAD_SHARE + (1.0 - NDT_BAD_SHARE) * NDT_RANGE_SHARE {
            let len = rng.range_inclusive(3, 60) as i32;
            let from = month_at(rng.below((span - len + 2) as u64) as i32);
            let to = from.plus(len - 1);
            let open = tracer.begin("source.ndt_range", "", i as u64);
            let stats = source.ndt_range_stats(cc, from, to);
            tracer.end(open);
            let stats = stats.map_err(|e| format!("ndt_range_stats({cc}, {from}, {to}): {e}"))?;
            probe.range_queries += 1;
            probe.read.absorb(stats.read);
            probe.months_queried += stats.months_queried;
            probe.shards_opened += stats.months.len();
            probe.shards_pruned += stats.shards_pruned;
            let expect = if stats.months.is_empty() {
                Expect::Status(404)
            } else {
                Expect::Ndt {
                    rows: stats.rows,
                    median: stats.mean_monthly_median,
                }
            };
            (format!("/ndt/{cc}?from={from}&to={to}"), expect)
        } else {
            let month = month_at(rng.below(span as u64 + 1) as i32);
            let open = tracer.begin("source.ndt_month", "", i as u64);
            let stats = source.ndt_month_stats(cc, month);
            tracer.end(open);
            let stats = stats.map_err(|e| format!("ndt_month_stats({cc}, {month}): {e}"))?;
            probe.month_queries += 1;
            let expect = match stats {
                Some(stats) => {
                    probe.read.absorb(stats.read);
                    Expect::Ndt {
                        rows: stats.rows,
                        median: stats.median_download,
                    }
                }
                None => Expect::Status(404),
            };
            (format!("/ndt/{cc}/{month}"), expect)
        };
        stream.push(Req {
            bytes: client::get(&target),
            target,
            expect,
        });
    }
    Ok(stream)
}

/// Checks responses against a stream's expectations. An NDT body is
/// parsed the first time its request is answered; later answers to the
/// same request must repeat those bytes, compared by a 64-bit hash.
pub struct Checker<'a> {
    stream: &'a [Req],
    verified: Vec<Option<u64>>,
}

impl<'a> Checker<'a> {
    pub fn new(stream: &'a [Req]) -> Checker<'a> {
        Checker {
            stream,
            verified: vec![None; stream.len()],
        }
    }

    pub fn check(&mut self, index: usize, status: u16, body: &[u8]) -> bool {
        match &self.stream[index].expect {
            Expect::Body(expected) => status == 200 && body == expected.as_slice(),
            Expect::Healthz => status == 200 && body == b"{\"status\":\"ok\"}",
            Expect::Metrics => status == 200 && body.starts_with(b"# HELP lacnet_requests_total"),
            Expect::Status(expected) => status == *expected,
            Expect::Ndt { rows, median } => {
                if status != 200 {
                    return false;
                }
                let hash = body_hash(body);
                if let Some(seen) = self.verified[index] {
                    return seen == hash;
                }
                let ok = ndt_body_matches(body, *rows, *median);
                if ok {
                    self.verified[index] = Some(hash);
                }
                ok
            }
        }
    }
}

fn body_hash(body: &[u8]) -> u64 {
    let mut hasher = DefaultHasher::new();
    body.hash(&mut hasher);
    hasher.finish()
}

fn ndt_body_matches(body: &[u8], rows: usize, median: Option<f64>) -> bool {
    let Some(json) = std::str::from_utf8(body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
    else {
        return false;
    };
    let median_field = if json.get("months").is_some() {
        "mean_monthly_median_mbps"
    } else {
        "median_download_mbps"
    };
    let served_median = match json.get(median_field) {
        Some(Json::Null) => None,
        Some(v) => match v.as_f64() {
            Some(x) => Some(x),
            None => return false,
        },
        None => return false,
    };
    json.get("rows").and_then(Json::as_f64) == Some(rows as f64)
        && served_median.map(f64::to_bits) == median.map(f64::to_bits)
}
