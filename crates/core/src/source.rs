//! The `DataSource` abstraction: one access surface for the experiment
//! battery, served by two interchangeable backends.
//!
//! * [`DataSource::InMemory`] borrows a generated [`World`] — the fast
//!   path every unit test and the default `vzla-report` run use.
//! * [`DataSource::Archive`] owns an [`ArchiveWorld`] reloaded from a
//!   [`crate::datasets::dump`] tree: every dataset is rebuilt by parsing
//!   the dumped native-format files (serial-1 relationship files,
//!   RouteViews pfx2as, NRO delegations, PeeringDB v2 JSON dumps, the
//!   Telegeography cable map, yearly TLS scans, top-site scrapes,
//!   streamed M-Lab NDT shards, Atlas reachability TSVs), exactly as the
//!   pipeline would parse the real archives.
//!
//! Both backends carry their own pfx2as `SnapshotCache` and `ConeCache`,
//! so month-table and cone memoization behave identically on either
//! path. The round-trip suite (`tests/archive_roundtrip.rs`) proves the
//! full battery renders byte-identically from both.

use lacnet_atlas::outages::ReachabilitySeries;
use lacnet_bgp::{AsGraph, ConeCache, PfxToAs, TopologyArchive};
use lacnet_crisis::config::windows;
use lacnet_crisis::dns::{self, DnsWorld};
use lacnet_crisis::operators::Operators;
use lacnet_crisis::world::SnapshotCache;
use lacnet_crisis::{bandwidth, blackouts, Economy, World, WorldConfig};
use lacnet_mlab::aggregate::{Mode, MonthlyAggregator};
use lacnet_mlab::columnar::{
    ColumnReader, ColumnSelection, ColumnSet, DecodeScratch, ReadStats, ShardFormat,
};
use lacnet_offnets::certs::CertScan;
use lacnet_peeringdb::{Snapshot, SnapshotArchive};
use lacnet_registry::{AllocationLedger, DelegationFile};
use lacnet_telegeo::CableMap;
use lacnet_types::stats::P2Quantile;
use lacnet_types::{sweep, Asn, CountryCode, Date, Error, MonthStamp, Result, TimeSeries};
use lacnet_webmeas::CountryTopSites;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A world reloaded from a dumped archive tree: the model roots
/// (economy, operators, DNS world) regenerated from the config sidecar,
/// every measured dataset parsed from its native-format files.
pub struct ArchiveWorld {
    /// The configuration read from `world/config.tsv`.
    pub config: WorldConfig,
    /// The scenario read from `world/scenario.toml`; a tree without the
    /// sidecar is a default (Venezuela) dump.
    pub scenario: lacnet_crisis::Scenario,
    /// Regenerated macro-economy (a pure function of the config).
    pub economy: Economy,
    /// Regenerated operator cast (a pure function of the seed).
    pub operators: Operators,
    /// Regenerated probes/roots/GPDNS world (a pure function of the seed).
    pub dns: DnsWorld,
    /// Topology parsed from the monthly serial-1 files.
    pub topology: TopologyArchive,
    /// Allocation ledger rebuilt from the full-history delegation file.
    pub ledger: AllocationLedger,
    /// PeeringDB snapshots parsed from the monthly JSON dumps.
    pub peeringdb: SnapshotArchive,
    /// Cable map parsed from the Telegeography-style export.
    pub cables: CableMap,
    /// M-Lab aggregation streamed from the per-(country, month) shards.
    pub mlab: MonthlyAggregator,
    /// TLS scans parsed from the yearly off-net exports, manifest order.
    pub cert_scans: Vec<CertScan>,
    /// Top-site scrapes parsed per country, manifest order.
    pub top_sites: Vec<CountryTopSites>,
    /// Daily reachability parsed from the per-country Atlas TSVs.
    pub reachability: BTreeMap<CountryCode, ReachabilitySeries>,
    /// The archive-level NDT shard index (`mlab/index.tsv`), keyed by
    /// `(country, month)` — the one resolver from a query to its shard
    /// files.
    ndt_index: BTreeMap<bandwidth::NdtShard, crate::datasets::ShardIndexRecord>,
    root: PathBuf,
    pfx2as_cache: SnapshotCache,
    cone_cache: ConeCache,
}

/// What one `(country, month)` NDT query returns: how many tests
/// matched, their median download, and exactly how much of the shard the
/// answer cost to decode.
#[derive(Debug, Clone, PartialEq)]
pub struct NdtMonthStats {
    /// Tests matching the query.
    pub rows: usize,
    /// P² median download (Mbit/s) over those tests, in row order — the
    /// same estimator state the resident aggregate holds for the group.
    pub median_download: Option<f64>,
    /// The backing the answer came from (`columnar-v2`, `text`, or
    /// `in-memory`).
    pub format: &'static str,
    /// Decode accounting (zero for text and in-memory backings).
    pub read: ReadStats,
}

/// What a `(country, [from, to])` NDT range query returns: the
/// per-month answers in ascending month order — each entry equal to
/// what the single-month query for that `(country, month)` would have
/// returned — plus the range-level merges. The merge is deterministic
/// by construction: shards decode on sweep workers but results are
/// folded in shard-plan (month) order, never completion order.
#[derive(Debug, Clone, PartialEq)]
pub struct NdtRangeStats {
    /// Months in `[from, to]` with a shard in the archive, ascending.
    pub months: Vec<(MonthStamp, NdtMonthStats)>,
    /// Total matching tests across the range.
    pub rows: usize,
    /// Mean of the monthly median downloads (Mbit/s); `None` when no
    /// month in the range produced a median.
    pub mean_monthly_median: Option<f64>,
    /// Months the inclusive `[from, to]` span covers.
    pub months_queried: usize,
    /// Shards skipped without opening a file because the resident shard
    /// index's day-span summary proves they cannot intersect the range.
    pub shards_pruned: usize,
    /// Merged decode accounting across every decoded shard — the sum of
    /// the per-month `read` fields.
    pub read: ReadStats,
}

fn month_from_name(name: &str, prefix: &str, suffix: &str) -> Option<MonthStamp> {
    let stamp = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    // `YYYYMMDD` (day ignored) or `YYYY_MM_DD` with either separator.
    let digits: String = stamp.chars().filter(|c| c.is_ascii_digit()).collect();
    if digits.len() < 6 {
        return None;
    }
    let year: i32 = digits[0..4].parse().ok()?;
    let month: u8 = digits[4..6].parse().ok()?;
    (1..=12)
        .contains(&month)
        .then(|| MonthStamp::new(year, month))
}

impl ArchiveWorld {
    /// Load an archive dumped by [`crate::datasets::dump`] from `root`,
    /// parsing every dataset from its native format, each NDT shard in
    /// the encoding the shard index names. See [`ArchiveWorld::load_with`].
    pub fn load(root: &Path) -> Result<ArchiveWorld> {
        ArchiveWorld::load_with(root, None)
    }

    /// Load an archive dumped by [`crate::datasets::dump_with`] from
    /// `root`, parsing every dataset from its native format.
    ///
    /// NDT shards feed the aggregator in shard-plan order — the exact
    /// observation sequence the in-memory aggregator saw — so the
    /// order-sensitive P² estimators land in identical state. The
    /// required shard index (`mlab/index.tsv`) names every planned
    /// shard's file, and so its format; a missing or malformed index, or
    /// one without a record for a planned shard, fails the load typed.
    /// Columnar shards are decoded on sweep workers and merged through
    /// `observe_columns`, while text shards are *streamed* through
    /// `ndt::stream_rows` without materializing the file. Passing
    /// `Some(format)` in `expect` demands that every shard be in that
    /// format and fails on the first that is not.
    pub fn load_with(root: &Path, expect: Option<ShardFormat>) -> Result<ArchiveWorld> {
        let read = |rel: &str| -> Result<String> {
            fs::read_to_string(root.join(rel))
                .map_err(|_| Error::missing("archive file", format!("{}/{rel}", root.display())))
        };
        let config = WorldConfig::parse(&read("world/config.tsv")?)?;
        let scenario = match fs::read_to_string(root.join("world/scenario.toml")) {
            Ok(text) => lacnet_crisis::Scenario::parse(&text).map_err(Error::from)?,
            Err(_) => lacnet_crisis::Scenario::venezuela(),
        };

        // The model roots are pure functions of the config and scenario;
        // regenerating them is the archive's equivalent of carrying them
        // as sidecars.
        let (economy, (operators, dns_world)) = sweep::join2(
            || Economy::generate_with(config.economy_start, config.end, &scenario.gdp_anchors),
            || {
                sweep::join2(
                    || Operators::generate(config.seed),
                    || dns::build_dns_world(config.seed),
                )
            },
        );

        let manifest = read("MANIFEST.txt")?;
        let entries: Vec<&str> = manifest
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .collect();

        let mut topology = TopologyArchive::new();
        let mut peeringdb = SnapshotArchive::new();
        let mut cables: Option<CableMap> = None;
        let mut cert_scans = Vec::new();
        let mut top_sites = Vec::new();
        let mut reachability = BTreeMap::new();
        let mut last_delegations: Option<&str> = None;

        for &rel in &entries {
            if let Some(name) = rel.strip_prefix("serial1/") {
                let m = month_from_name(name, "", ".as-rel.txt")
                    .ok_or_else(|| Error::parse("serial-1 file month", rel))?;
                let edges = lacnet_bgp::serial1::parse(&read(rel)?)?;
                topology.insert(m, AsGraph::from_edges(edges));
            } else if let Some(name) = rel.strip_prefix("peeringdb/") {
                let m = month_from_name(name, "peeringdb_2_dump_", ".json")
                    .ok_or_else(|| Error::parse("peeringdb dump month", rel))?;
                peeringdb.insert(m, Snapshot::from_json(&read(rel)?)?);
            } else if rel.starts_with("delegations/") {
                last_delegations = Some(rel);
            } else if rel.starts_with("cables/") {
                cables = Some(CableMap::from_json(&read(rel)?)?);
            } else if rel.starts_with("offnets/") {
                cert_scans.push(CertScan::from_json(&read(rel)?)?);
            } else if rel.starts_with("topsites/") {
                top_sites.push(CountryTopSites::from_json(&read(rel)?)?);
            } else if let Some(name) = rel.strip_prefix("atlas/reachability-") {
                let code = name.split('-').next().unwrap_or_default();
                let cc = CountryCode::new(code)
                    .map_err(|_| Error::parse("reachability file country", rel))?;
                reachability.insert(cc, ReachabilitySeries::parse_tsv(&read(rel)?)?);
            }
            // mlab/ shards are streamed below in plan order; traceroute
            // samples and the manifest itself carry no battery state.
        }

        let last_delegations =
            last_delegations.ok_or_else(|| Error::missing("archive dataset", "delegations/"))?;
        let ledger = AllocationLedger::from_delegation_file(&DelegationFile::parse(&read(
            last_delegations,
        )?)?)?;

        // Resolve each planned shard's file through the index, then
        // decode the columnar ones on sweep workers. The sequential merge
        // below still runs in plan order, so both formats replay the
        // identical observation sequence.
        let ndt_index = crate::datasets::read_shard_index(root)?;
        let plan = bandwidth::shard_plan(windows::mlab_start(), config.end);
        let resolved: Vec<&str> = plan
            .iter()
            .map(|&shard| -> Result<&str> {
                let (cc, month) = shard;
                let rec = ndt_index.get(&shard).ok_or_else(|| {
                    Error::missing("NDT shard in mlab/index.tsv", format!("{cc}/{month}"))
                })?;
                if let Some(format) = expect {
                    let rel = crate::datasets::mlab_shard_path_with(shard, format);
                    if rec.path != rel {
                        return Err(Error::missing("NDT archive shard", rel));
                    }
                }
                Ok(&rec.path)
            })
            .collect::<Result<_>>()?;
        // Decode only the columns some registered consumer declared a
        // need for — today the union is exactly the aggregate's three
        // columns, so a v2 load skips over half the shard bytes.
        let selection = ColumnSelection::columns(crate::registry::ndt_column_union());
        let decoded = sweep::parallel_map_with(
            sweep::worker_count(resolved.len()),
            &resolved,
            |rel| -> Option<Result<lacnet_mlab::ColumnBatch>> {
                rel.ends_with(".ndtc").then(|| {
                    let bytes = fs::read(root.join(rel))
                        .map_err(|_| Error::missing("NDT archive shard", *rel))?;
                    let (batch, _) = ColumnReader::open(&bytes)?.read_counted(&selection)?;
                    Ok(batch)
                })
            },
        );
        let mut mlab = MonthlyAggregator::new(Mode::Streaming);
        for (rel, batch) in resolved.iter().zip(decoded) {
            match batch {
                Some(batch) => {
                    mlab.observe_columns(&batch?);
                }
                None => {
                    let file = fs::File::open(root.join(rel))
                        .map_err(|_| Error::missing("NDT archive shard", *rel))?;
                    mlab.observe_reader(io::BufReader::new(file))?;
                }
            }
        }

        Ok(ArchiveWorld {
            config,
            scenario,
            economy,
            operators,
            dns: dns_world,
            topology,
            ledger,
            peeringdb,
            cables: cables.ok_or_else(|| Error::missing("archive dataset", "cables/"))?,
            mlab,
            cert_scans,
            top_sites,
            reachability,
            ndt_index,
            root: root.to_owned(),
            pfx2as_cache: SnapshotCache::new(),
            cone_cache: ConeCache::new(),
        })
    }

    /// Decode one resolved shard — the per-shard body of
    /// [`ArchiveWorld::ndt_range_stats`]. Containers go through the
    /// borrowed [`ColumnReader::scan_counted`] path: download values
    /// feed the order-sensitive P² estimator straight off the
    /// [`lacnet_mlab::ColumnSlice`] view and dictionary columns land in
    /// the caller's reusable scratch, so after warm-up the only
    /// per-shard heap work is the file read itself.
    fn ndt_shard_stats(
        &self,
        cc: CountryCode,
        month: MonthStamp,
        rel: &str,
        scratch: &mut DecodeScratch,
    ) -> Result<NdtMonthStats> {
        let path = self.root.join(rel);
        let mut p2 = P2Quantile::median();
        if rel.ends_with(".ndtc") {
            let bytes = fs::read(&path).map_err(|_| Error::missing("NDT archive shard", rel))?;
            let reader = ColumnReader::open(&bytes)?;
            let selection = ColumnSelection::columns(ColumnSet::DOWNLOAD).with_country(cc);
            let mut rows = 0usize;
            let read = reader.scan_counted(&selection, scratch, |view| {
                rows += view.download().len();
                for v in view.download().iter() {
                    p2.observe(v);
                }
                Ok(())
            })?;
            Ok(NdtMonthStats {
                rows,
                median_download: p2.value(),
                format: "columnar-v2",
                read,
            })
        } else {
            let file =
                fs::File::open(&path).map_err(|_| Error::missing("NDT archive shard", rel))?;
            let mut rows = 0usize;
            for row in lacnet_mlab::ndt::stream_rows(io::BufReader::new(file)) {
                let row = row?;
                if row.country == cc && row.date.month_stamp() == month {
                    p2.observe(row.download_mbps);
                    rows += 1;
                }
            }
            Ok(NdtMonthStats {
                rows,
                median_download: p2.value(),
                format: "text",
                read: ReadStats::default(),
            })
        }
    }

    /// Answer a `(country, [from, to])` NDT range query: walk the
    /// resident shard index over exactly the window's records to build
    /// the shard plan, prune shards whose indexed day span cannot
    /// intersect the window, fan the surviving selective reads across
    /// `sweep` workers (one scratch arena per shard), and merge in plan
    /// order so the result is byte-stable at any worker count. `Err` on
    /// a reversed range; months without data simply don't appear in the
    /// result. A single-month query is the one-month range.
    pub fn ndt_range_stats(
        &self,
        cc: CountryCode,
        from: MonthStamp,
        to: MonthStamp,
    ) -> Result<NdtRangeStats> {
        if from > to {
            return Err(Error::invalid("NDT range: from month after to month"));
        }
        let lo = from.first_day().days_since_epoch();
        let hi = to.last_day().days_since_epoch();
        let months_queried = (from.months_until(to) + 1) as usize;
        let mut shards_pruned = 0usize;
        // One ordered walk over exactly the window's slice of the
        // resident index. A shard stays in the plan unless its day-span
        // summary proves it cannot intersect the window (sparse or
        // mislabeled data, or future partial live-ingested months) — then
        // the file is skipped without opening it. Empty shards carry no
        // span and are never pruned.
        let mut plan: Vec<(MonthStamp, &str)> = Vec::new();
        for (&(_, month), rec) in self.ndt_index.range((cc, from)..=(cc, to)) {
            match rec.days {
                Some((min_day, max_day)) if max_day < lo || min_day > hi => {
                    shards_pruned += 1;
                }
                _ => plan.push((month, &rec.path)),
            }
        }
        let results =
            sweep::parallel_map_with(sweep::worker_count(plan.len()), &plan, |&(month, rel)| {
                let mut scratch = DecodeScratch::new();
                self.ndt_shard_stats(cc, month, rel, &mut scratch)
            });
        let mut months = Vec::with_capacity(plan.len());
        let mut rows = 0usize;
        let mut read = ReadStats::default();
        let mut median_sum = 0.0;
        let mut median_count = 0usize;
        for ((month, _), result) in plan.into_iter().zip(results) {
            let stats = result?;
            rows += stats.rows;
            read.absorb(stats.read);
            if let Some(m) = stats.median_download {
                median_sum += m;
                median_count += 1;
            }
            months.push((month, stats));
        }
        Ok(NdtRangeStats {
            months,
            rows,
            mean_monthly_median: (median_count > 0).then(|| median_sum / median_count as f64),
            months_queried,
            shards_pruned,
            read,
        })
    }

    /// The pfx2as table for `month`, parsed lazily from the monthly dump
    /// and memoized. Months outside the dumped window serve the empty
    /// table (the archive, like the real one, starts in 2008).
    pub fn pfx2as_at(&self, month: MonthStamp) -> Arc<PfxToAs> {
        self.pfx2as_cache.get_or_compute(month, || {
            let rel = format!(
                "pfx2as/routeviews-rv2-{}{:02}01.pfx2as",
                month.year(),
                month.month()
            );
            match fs::read_to_string(self.root.join(&rel)) {
                Ok(text) => PfxToAs::parse(&text).unwrap_or_else(|e| {
                    panic!("archive pfx2as {rel} does not parse: {e}");
                }),
                Err(_) => PfxToAs::new(),
            }
        })
    }

    /// The directory this archive was loaded from.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The customer cone of `asn` at `month`, memoized in the archive's
    /// own [`ConeCache`] — same contract as [`World::customer_cone_at`].
    pub fn customer_cone_at(&self, month: MonthStamp, asn: Asn) -> Arc<BTreeSet<Asn>> {
        self.cone_cache
            .get_or_compute(month, asn, || match self.topology.get(month) {
                Some(graph) => graph.customer_cone(asn),
                None => BTreeSet::from([asn]),
            })
    }
}

/// One access surface for every dataset the battery consumes, backed
/// either by a borrowed in-memory [`World`] or by an owned
/// [`ArchiveWorld`] parsed from disk.
pub enum DataSource<'w> {
    /// Borrow a generated world.
    InMemory(&'w World),
    /// Own a world reloaded from a dumped archive tree.
    Archive(Box<ArchiveWorld>),
}

impl<'w> DataSource<'w> {
    /// Wrap a generated world.
    pub fn in_memory(world: &'w World) -> Self {
        DataSource::InMemory(world)
    }

    /// Load the archive backend from a dump tree (see
    /// [`ArchiveWorld::load`]).
    pub fn from_archive(root: &Path) -> Result<Self> {
        Ok(DataSource::Archive(Box::new(ArchiveWorld::load(root)?)))
    }

    /// Load the archive backend, demanding a specific NDT shard format
    /// (see [`ArchiveWorld::load_with`]). `None` takes each shard in the
    /// format the shard index names.
    pub fn from_archive_with(root: &Path, expect: Option<ShardFormat>) -> Result<Self> {
        Ok(DataSource::Archive(Box::new(ArchiveWorld::load_with(
            root, expect,
        )?)))
    }

    /// The backend's name, for progress reporting.
    pub fn backend(&self) -> &'static str {
        match self {
            DataSource::InMemory(_) => "in-memory",
            DataSource::Archive(_) => "archive",
        }
    }

    /// The world configuration.
    pub fn config(&self) -> &WorldConfig {
        match self {
            DataSource::InMemory(w) => &w.config,
            DataSource::Archive(a) => &a.config,
        }
    }

    /// The scenario the backend's world was generated under.
    pub fn scenario(&self) -> &lacnet_crisis::Scenario {
        match self {
            DataSource::InMemory(w) => &w.scenario,
            DataSource::Archive(a) => &a.scenario,
        }
    }

    /// The macro-economy (Fig. 1, Fig. 13).
    pub fn economy(&self) -> &Economy {
        match self {
            DataSource::InMemory(w) => &w.economy,
            DataSource::Archive(a) => &a.economy,
        }
    }

    /// The operator cast, as2org mapping and populations.
    pub fn operators(&self) -> &Operators {
        match self {
            DataSource::InMemory(w) => &w.operators,
            DataSource::Archive(a) => &a.operators,
        }
    }

    /// Monthly AS-relationship snapshots (Figs. 8, 9).
    pub fn topology(&self) -> &TopologyArchive {
        match self {
            DataSource::InMemory(w) => &w.topology,
            DataSource::Archive(a) => &a.topology,
        }
    }

    /// The allocation ledger (Figs. 2, 14).
    pub fn ledger(&self) -> &AllocationLedger {
        match self {
            DataSource::InMemory(w) => w.addressing.ledger(),
            DataSource::Archive(a) => &a.ledger,
        }
    }

    /// Monthly PeeringDB snapshots (Figs. 3, 10, 15, 21).
    pub fn peeringdb(&self) -> &SnapshotArchive {
        match self {
            DataSource::InMemory(w) => &w.peeringdb,
            DataSource::Archive(a) => &a.peeringdb,
        }
    }

    /// The submarine cable map (Fig. 4).
    pub fn cables(&self) -> &CableMap {
        match self {
            DataSource::InMemory(w) => &w.cables,
            DataSource::Archive(a) => &a.cables,
        }
    }

    /// Probes, root deployment and GPDNS sites (Figs. 6, 12, 16, 17, 20).
    pub fn dns(&self) -> &DnsWorld {
        match self {
            DataSource::InMemory(w) => &w.dns,
            DataSource::Archive(a) => &a.dns,
        }
    }

    /// The streamed M-Lab aggregation (Fig. 11).
    pub fn mlab(&self) -> &MonthlyAggregator {
        match self {
            DataSource::InMemory(w) => &w.mlab,
            DataSource::Archive(a) => &a.mlab,
        }
    }

    /// One `(country, month)` NDT query: the one-month range
    /// [`DataSource::ndt_range_stats`]`(cc, month, month)` with its
    /// single month taken out. `Ok(None)` when the backend holds no data
    /// for that pair.
    pub fn ndt_month_stats(
        &self,
        cc: CountryCode,
        month: MonthStamp,
    ) -> Result<Option<NdtMonthStats>> {
        let mut range = self.ndt_range_stats(cc, month, month)?;
        Ok(range.months.pop().map(|(_, stats)| stats))
    }

    /// A `(country, [from, to])` NDT range query — both forms of the
    /// `/ndt/` serve endpoint. The in-memory backend walks the resident
    /// aggregate's groups; the archive backend merges parallel
    /// per-shard selective reads in plan order (see
    /// [`ArchiveWorld::ndt_range_stats`]), decoding only the matching
    /// blocks' download column of each container. `Err` on a reversed
    /// range.
    pub fn ndt_range_stats(
        &self,
        cc: CountryCode,
        from: MonthStamp,
        to: MonthStamp,
    ) -> Result<NdtRangeStats> {
        match self {
            DataSource::InMemory(w) => {
                if from > to {
                    return Err(Error::invalid("NDT range: from month after to month"));
                }
                let mut months = Vec::new();
                let mut rows = 0usize;
                let mut median_sum = 0.0;
                let mut median_count = 0usize;
                let mut months_queried = 0usize;
                for month in from.through(to) {
                    months_queried += 1;
                    let Some(g) = w.mlab.group(cc, month) else {
                        continue;
                    };
                    let stats = NdtMonthStats {
                        rows: g.count(),
                        median_download: g.median(),
                        format: "in-memory",
                        read: ReadStats::default(),
                    };
                    rows += stats.rows;
                    if let Some(m) = stats.median_download {
                        median_sum += m;
                        median_count += 1;
                    }
                    months.push((month, stats));
                }
                Ok(NdtRangeStats {
                    months,
                    rows,
                    mean_monthly_median: (median_count > 0)
                        .then(|| median_sum / median_count as f64),
                    months_queried,
                    shards_pruned: 0,
                    read: ReadStats::default(),
                })
            }
            DataSource::Archive(a) => a.ndt_range_stats(cc, from, to),
        }
    }

    /// The inclusive month window the backend's NDT data can cover:
    /// `[mlab_start, config.end]` — the dataset's own generation window.
    /// The serve layer rejects range queries entirely outside it as
    /// client errors before touching the cache or any shard.
    pub fn ndt_month_bounds(&self) -> (MonthStamp, MonthStamp) {
        (windows::mlab_start(), self.config().end)
    }

    /// Yearly TLS scans 2013–2021 (Figs. 7, 18).
    pub fn cert_scans(&self) -> &[CertScan] {
        match self {
            DataSource::InMemory(w) => &w.cert_scans,
            DataSource::Archive(a) => &a.cert_scans,
        }
    }

    /// Top-site scrapes, January 2024 (Fig. 19).
    pub fn top_sites(&self) -> &[CountryTopSites] {
        match self {
            DataSource::InMemory(w) => &w.top_sites,
            DataSource::Archive(a) => &a.top_sites,
        }
    }

    /// The announced-prefix table for `month`, memoized per backend —
    /// derived from the topology in memory, parsed from the monthly dump
    /// on the archive path.
    pub fn pfx2as_at(&self, month: MonthStamp) -> Arc<PfxToAs> {
        match self {
            DataSource::InMemory(w) => w.pfx2as_at(month),
            DataSource::Archive(a) => a.pfx2as_at(month),
        }
    }

    /// The customer cone of `asn` at `month`, memoized in the backend's
    /// [`ConeCache`].
    pub fn customer_cone_at(&self, month: MonthStamp, asn: Asn) -> Arc<BTreeSet<Asn>> {
        match self {
            DataSource::InMemory(w) => w.customer_cone_at(month, asn),
            DataSource::Archive(a) => a.customer_cone_at(month, asn),
        }
    }

    /// `asn`'s cone size for every month of the topology archive, served
    /// through the backend's cache on sweep workers.
    pub fn cone_size_series(&self, asn: Asn) -> TimeSeries {
        match self {
            DataSource::InMemory(w) => w.cone_size_series(asn),
            DataSource::Archive(a) => {
                let months: Vec<MonthStamp> = a.topology.iter().map(|(m, _)| m).collect();
                sweep::months_sweep(&months, |m| a.customer_cone_at(m, asn).len() as f64)
                    .into_iter()
                    .collect()
            }
        }
    }

    /// The backend's shared [`ConeCache`] handle, for cache-aware
    /// analytics: the Fig. 9 transit matrix and the inference extension's
    /// path computations memoize through it.
    pub fn cone_cache(&self) -> &ConeCache {
        match self {
            DataSource::InMemory(w) => w.cone_cache(),
            DataSource::Archive(a) => &a.cone_cache,
        }
    }

    /// Daily per-country probe reachability for the 2019 blackout year —
    /// simulated from the DNS world in memory, parsed from the Atlas
    /// TSVs on the archive path.
    pub fn reachability_2019(&self) -> BTreeMap<CountryCode, ReachabilitySeries> {
        match self {
            DataSource::InMemory(w) => blackouts::daily_reachability_with(
                &w.dns,
                Date::ymd(2019, 1, 1),
                Date::ymd(2019, 12, 31),
                w.config.seed,
                &w.scenario,
            ),
            DataSource::Archive(a) => a.reachability.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::country;

    #[test]
    fn in_memory_source_mirrors_the_world() {
        let world = crate::experiments::testworld::world();
        let src = DataSource::in_memory(world);
        assert_eq!(src.backend(), "in-memory");
        assert_eq!(src.config(), &world.config);
        assert_eq!(src.topology().len(), world.topology.len());
        assert_eq!(src.cert_scans().len(), world.cert_scans.len());
        let m = MonthStamp::new(2020, 6);
        assert!(Arc::ptr_eq(&src.pfx2as_at(m), &world.pfx2as_at(m)));
        assert!(Arc::ptr_eq(
            &src.customer_cone_at(m, lacnet_crisis::world::FOCAL_AS),
            &world.customer_cone_at(m, lacnet_crisis::world::FOCAL_AS)
        ));
        assert!(src.reachability_2019().contains_key(&country::VE));
    }

    #[test]
    fn archive_source_reloads_every_dataset() {
        let world = crate::experiments::testworld::world();
        let dir = std::env::temp_dir().join(format!("lacnet-src-{}", std::process::id()));
        crate::datasets::dump(world, &dir).expect("dump succeeds");
        let src = DataSource::from_archive(&dir).expect("archive loads");
        assert_eq!(src.backend(), "archive");
        assert_eq!(src.config(), &world.config);
        assert_eq!(src.topology().len(), world.topology.len());
        assert_eq!(src.peeringdb().len(), world.peeringdb.len());
        assert_eq!(src.cert_scans().len(), world.cert_scans.len());
        assert_eq!(src.top_sites().len(), world.top_sites.len());
        assert_eq!(src.mlab().group_count(), world.mlab.group_count());
        let m = MonthStamp::new(2020, 6);
        assert_eq!(src.pfx2as_at(m).to_text(), world.pfx2as_at(m).to_text());
        assert_eq!(
            *src.customer_cone_at(m, lacnet_crisis::world::FOCAL_AS),
            *world.customer_cone_at(m, lacnet_crisis::world::FOCAL_AS)
        );
        // The ledger answers queries identically after the rebuild.
        let cutoff = world.config.end.last_day();
        assert_eq!(
            src.ledger().space_of_country(country::VE, cutoff),
            world
                .addressing
                .ledger()
                .space_of_country(country::VE, cutoff)
        );
        // Reachability was parsed for every lacnic country.
        assert_eq!(
            src.reachability_2019().len(),
            country::lacnic_codes().count()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn columnar_archive_matches_text_archive_exactly() {
        let world = crate::experiments::testworld::world();
        let dir = std::env::temp_dir().join(format!("lacnet-src-col-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        crate::datasets::dump_with(
            world,
            &dir,
            crate::datasets::DumpOptions {
                shard_format: ShardFormat::Columnar,
                ..crate::datasets::DumpOptions::default()
            },
        )
        .expect("columnar dump succeeds");
        // The index-resolved load and an explicit format demand both load
        // it; a wrong demand fails typed.
        let src = DataSource::from_archive(&dir).expect("index-resolved load");
        let demanded = DataSource::from_archive_with(&dir, Some(ShardFormat::Columnar))
            .expect("demanded columnar load");
        assert!(DataSource::from_archive_with(&dir, Some(ShardFormat::Text)).is_err());
        // The columnar path lands the order-sensitive P² estimators in
        // byte-identical state to the in-memory aggregation.
        assert_eq!(
            format!("{:?}", src.mlab()),
            format!("{:?}", world.mlab),
            "columnar archive aggregation diverged from in-memory state"
        );
        assert_eq!(
            format!("{:?}", demanded.mlab()),
            format!("{:?}", src.mlab())
        );
        // A single-(country, month) query decodes selectively and agrees
        // with the in-memory aggregate's group state bit for bit.
        let month = MonthStamp::new(2023, 7);
        let stats = src
            .ndt_month_stats(country::VE, month)
            .expect("query succeeds")
            .expect("shard exists");
        assert_eq!(stats.format, "columnar-v2");
        assert!(stats.rows > 0);
        // Only the download column of each matching block was decoded.
        assert_eq!(stats.read.columns_decoded, stats.read.blocks_decoded);
        assert!(stats.read.blocks_decoded >= 1);
        let shard_len = std::fs::read(dir.join("mlab/VE/ndt-2023-07.ndtc"))
            .unwrap()
            .len();
        assert!(
            stats.read.bytes_decoded < shard_len / 2,
            "selective decode touched {} of {} shard bytes",
            stats.read.bytes_decoded,
            shard_len
        );
        let in_memory = DataSource::in_memory(world)
            .ndt_month_stats(country::VE, month)
            .unwrap()
            .unwrap();
        assert_eq!(stats.rows, in_memory.rows);
        assert_eq!(stats.median_download, in_memory.median_download);
        // A month outside the archive answers None, not an error.
        assert!(src
            .ndt_month_stats(country::VE, MonthStamp::new(1999, 1))
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn range_query_merges_single_month_queries() {
        let world = crate::experiments::testworld::world();
        let dir = std::env::temp_dir().join(format!("lacnet-src-range-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        crate::datasets::dump_with(
            world,
            &dir,
            crate::datasets::DumpOptions {
                shard_format: ShardFormat::Columnar,
                ..crate::datasets::DumpOptions::default()
            },
        )
        .expect("columnar dump succeeds");
        let src = DataSource::from_archive(&dir).expect("archive loads");
        let (from, to) = (MonthStamp::new(2023, 3), MonthStamp::new(2023, 7));

        let range = src
            .ndt_range_stats(country::VE, from, to)
            .expect("range query succeeds");
        assert_eq!(range.months_queried, 5);
        assert!(!range.months.is_empty());

        // The range is exactly the plan-order merge of its constituent
        // one-month ranges — per-month entries, row total and the
        // absorbed ReadStats all included — so a shard's answer does not
        // depend on the window around it.
        let mut rows = 0usize;
        let mut read = ReadStats::default();
        for &(month, ref stats) in &range.months {
            let single = src
                .ndt_month_stats(country::VE, month)
                .unwrap()
                .expect("shard exists for listed month");
            assert_eq!(stats, &single, "{month}");
            rows += single.rows;
            read.absorb(single.read);
        }
        assert_eq!(range.rows, rows);
        assert_eq!(range.read, read);
        assert_eq!(range.shards_pruned, 0);

        // Worker-count determinism: the merge is in plan order, so the
        // result is identical however the per-shard reads are scheduled
        // (the sweep engine is already worker-count invariant; this
        // pins the merge itself by re-running).
        let again = src.ndt_range_stats(country::VE, from, to).unwrap();
        assert_eq!(again, range);

        // The in-memory backend answers the same shape with the same
        // per-month rows and medians.
        let mem = DataSource::in_memory(world)
            .ndt_range_stats(country::VE, from, to)
            .unwrap();
        assert_eq!(mem.months.len(), range.months.len());
        assert_eq!(mem.rows, range.rows);
        for ((m_a, a), (m_b, b)) in mem.months.iter().zip(&range.months) {
            assert_eq!(m_a, m_b);
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.median_download, b.median_download);
        }
        assert_eq!(mem.mean_monthly_median, range.mean_monthly_median);

        // A reversed range is a typed error on both backends.
        assert!(src.ndt_range_stats(country::VE, to, from).is_err());
        assert!(DataSource::in_memory(world)
            .ndt_range_stats(country::VE, to, from)
            .is_err());

        // Day-span pruning: rewrite one indexed month's summary so it
        // provably cannot intersect the window. The reloaded archive
        // must skip that shard without opening it — the summary is
        // trusted for pruning, exactly like a v2 block index entry.
        let index_path = dir.join(crate::datasets::MLAB_INDEX);
        let text = std::fs::read_to_string(&index_path).unwrap();
        let pruned_month = range.months[0].0;
        let needle = format!("VE/{pruned_month}\t");
        let rewritten: String = text
            .lines()
            .map(|l| {
                if l.starts_with(&needle) {
                    let mut cols: Vec<&str> = l.split('\t').collect();
                    cols[4] = "0";
                    cols[5] = "1";
                    cols.join("\t") + "\n"
                } else {
                    l.to_owned() + "\n"
                }
            })
            .collect();
        std::fs::write(&index_path, rewritten).unwrap();
        let reloaded = DataSource::from_archive(&dir).expect("archive reloads");
        let pruned = reloaded.ndt_range_stats(country::VE, from, to).unwrap();
        assert_eq!(pruned.shards_pruned, 1);
        assert_eq!(pruned.months.len(), range.months.len() - 1);
        assert!(pruned.months.iter().all(|(m, _)| *m != pruned_month));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_tree_without_a_whole_shard_index_fails_to_load_naming_it() {
        let world = crate::experiments::testworld::world();
        let dir = std::env::temp_dir().join(format!("lacnet-src-noidx-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        crate::datasets::dump(world, &dir).expect("dump succeeds");
        let index_path = dir.join(crate::datasets::MLAB_INDEX);
        let index = std::fs::read_to_string(&index_path).unwrap();
        let load_error = || match DataSource::from_archive(&dir) {
            Ok(_) => panic!("the archive loaded without a whole shard index"),
            Err(e) => e.to_string(),
        };

        // Cut inside the last record: a short record, named by line.
        let last_tab = index.trim_end().rfind('\t').unwrap();
        std::fs::write(&index_path, &index[..last_tab]).unwrap();
        let lines = index[..last_tab].lines().count();
        let err = load_error();
        assert!(err.contains(&format!("mlab/index.tsv:{lines}: ")), "{err}");

        // Cut at a record boundary: every line parses, but the planned
        // shards past the cut have no record.
        let first_records = index.lines().take(10).collect::<Vec<_>>().join("\n") + "\n";
        std::fs::write(&index_path, first_records).unwrap();
        let err = load_error();
        assert!(err.contains("mlab/index.tsv"), "{err}");

        // No index at all.
        std::fs::remove_file(&index_path).unwrap();
        let err = load_error();
        assert!(err.contains("mlab/index.tsv"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
