//! Dataset export: write a generated world to disk as an archive tree in
//! each dataset's native format — the shape of the artifact bundle the
//! paper publishes ("we make available all datasets and code").
//!
//! The tree is complete enough to *reload*: [`crate::source::ArchiveWorld`]
//! rebuilds every dataset the battery consumes from these files alone,
//! and the round-trip suite proves the reloaded battery byte-identical to
//! the in-memory one.
//!
//! ```text
//! <out>/
//!   world/config.tsv                     the generating configuration
//!   serial1/19980101.as-rel.txt …        CAIDA serial-1, monthly
//!   pfx2as/routeviews-rv2-20080101.pfx2as …  RouteViews pfx2as, monthly
//!   delegations/delegated-lacnic-20080101 …  NRO delegation files, yearly
//!                                        plus one full-history snapshot
//!   peeringdb/peeringdb_2_dump_2018_04_01.json …  schema-v2 dumps, monthly
//!   cables/cable-map.json                Telegeography-style export
//!   offnets/scan-2013.json …             yearly TLS scans
//!   topsites/VE.json …                   per-country scrapes
//!   mlab/VE/ndt-2007-07.tsv …            per-(country, month) NDT shards
//!                                        (`.ndtc` under `--shard-format
//!                                        columnar`)
//!   mlab/manifest.tsv                    per-shard (label, fingerprint,
//!                                        content hash) — incremental
//!                                        refresh skips unchanged shards
//!   mlab/index.tsv                       archive-level shard index:
//!                                        (country, month) → shard path,
//!                                        row count, block count, day
//!                                        span — required to load
//!   atlas/reachability-VE-2019.tsv …     daily connected probes, per country
//!   MANIFEST.txt
//! ```
//!
//! NDT shards are the bulk of the tree, so they get two optimisations:
//! a binary columnar encoding ([`lacnet_mlab::columnar`]) selected via
//! [`DumpOptions::shard_format`], and *incremental refresh* — each dump
//! records every shard's input fingerprint (seed, effective per-country
//! volume scale, format) in `mlab/manifest.tsv`, and a re-dump over the
//! same tree regenerates only the shards whose fingerprints changed.

use lacnet_crisis::config::windows;
use lacnet_crisis::{bandwidth, blackouts, World, WorldConfig};
use lacnet_mlab::columnar::{self, ColumnReader, ColumnSelection, ShardFormat};
use lacnet_types::rng::Rng;
use lacnet_types::{codec, country, sweep, CountryCode, Date, Error, MonthStamp, Result};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Summary of one export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpSummary {
    /// Files in the tree, with their archive-relative paths (skipped
    /// shards included — they are part of the tree even when untouched).
    pub files: Vec<String>,
    /// Total bytes written (skipped shards excluded).
    pub bytes: u64,
    /// NDT shard files (re)written this dump.
    pub shards_written: usize,
    /// NDT shard files skipped because the manifest proved their inputs
    /// unchanged.
    pub shards_skipped: usize,
}

/// Options for one export.
#[derive(Debug, Clone, Copy, Default)]
pub struct DumpOptions {
    /// On-disk NDT shard encoding (`text` `.tsv` rows by default).
    pub shard_format: ShardFormat,
    /// Rewrite every shard even when the manifest says its inputs are
    /// unchanged.
    pub force: bool,
}

fn write_bytes(
    root: &Path,
    rel: &str,
    contents: &[u8],
    summary: &mut DumpSummary,
) -> io::Result<()> {
    let path = root.join(rel);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(&path, contents)?;
    summary.files.push(rel.to_owned());
    summary.bytes += contents.len() as u64;
    Ok(())
}

fn write(root: &Path, rel: &str, contents: &str, summary: &mut DumpSummary) -> io::Result<()> {
    write_bytes(root, rel, contents.as_bytes(), summary)
}

/// The archive-relative path of one NDT shard in the (default) text
/// format.
pub fn mlab_shard_path(shard: bandwidth::NdtShard) -> String {
    mlab_shard_path_with(shard, ShardFormat::Text)
}

/// The archive-relative path of one NDT shard in `format`.
pub fn mlab_shard_path_with(shard: bandwidth::NdtShard, format: ShardFormat) -> String {
    let (cc, month) = shard;
    format!("mlab/{cc}/ndt-{month}.{}", format.extension())
}

/// The archive-relative path of the NDT shard manifest.
pub const MLAB_MANIFEST: &str = "mlab/manifest.tsv";

/// The archive-relative path of the archive-level NDT shard index:
/// one record per `(country, month)` shard with its path, row count,
/// decodable-block count and day span, written at dump time. It is the
/// one NDT shard resolver: the loader and every NDT query find shard
/// files through it without probing the filesystem or decoding anything.
pub const MLAB_INDEX: &str = "mlab/index.tsv";

/// One `mlab/index.tsv` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardIndexRecord {
    /// Archive-relative shard path.
    pub path: String,
    /// Rows in the shard.
    pub rows: u64,
    /// Independently decodable blocks (1 for text shards).
    pub blocks: u64,
    /// Min/max test day (days since epoch) across the shard's rows —
    /// the range-query pruning summary. `None` exactly for empty shards.
    pub days: Option<(i64, i64)>,
}

/// Parse the shard index of a dumped tree, keyed by `(country, month)`.
/// The index is required: a missing file is a typed error naming it,
/// and so is any record that is short, long or malformed — a bad label,
/// an unparsable count, or a day span that is absent on a non-empty
/// shard, present on an empty one, or reversed. Those errors name the
/// file and the 1-based line.
pub fn read_shard_index(root: &Path) -> Result<BTreeMap<bandwidth::NdtShard, ShardIndexRecord>> {
    let text = fs::read_to_string(root.join(MLAB_INDEX))
        .map_err(|_| Error::missing("archive file", format!("{}/{MLAB_INDEX}", root.display())))?;
    let mut map = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (shard, record) = parse_index_record(line).ok_or_else(|| {
            Error::parse(
                "mlab/index.tsv record: label, path, rows, blocks, min_day, max_day",
                &format!("{MLAB_INDEX}:{}: {line}", i + 1),
            )
        })?;
        map.insert(shard, record);
    }
    Ok(map)
}

/// One `mlab/index.tsv` record, or `None` when it is malformed.
fn parse_index_record(line: &str) -> Option<(bandwidth::NdtShard, ShardIndexRecord)> {
    let cols: Vec<&str> = line.split('\t').collect();
    let &[label, path, rows, blocks, min_day, max_day] = cols.as_slice() else {
        return None;
    };
    let (cc, month) = label.split_once('/')?;
    let shard = (CountryCode::new(cc).ok()?, month.parse().ok()?);
    let rows: u64 = rows.parse().ok()?;
    let days = if rows == 0 {
        (min_day == "-" && max_day == "-").then_some(None)?
    } else {
        let (lo, hi): (i64, i64) = (min_day.parse().ok()?, max_day.parse().ok()?);
        (lo <= hi).then_some(Some((lo, hi)))?
    };
    let record = ShardIndexRecord {
        path: path.to_owned(),
        rows,
        blocks: blocks.parse().ok()?,
        days,
    };
    Some((shard, record))
}

/// One shard's index record payload: rows, blocks, and the
/// `(min_day, max_day)` span (`None` for an empty shard).
type ShardCensus = (u64, u64, Option<(i64, i64)>);

/// Row/block/day-span census of one encoded shard, for the shard index.
/// Text shards scan the date field per row; containers answer from the
/// footer index alone.
fn shard_census(bytes: &[u8], format: ShardFormat) -> io::Result<ShardCensus> {
    match format {
        ShardFormat::Text => {
            let mut rows = 0u64;
            let mut days: Option<(i64, i64)> = None;
            for line in bytes
                .split(|&b| b == b'\n')
                .filter(|l| !l.is_empty() && l[0] != b'#')
            {
                rows += 1;
                let date_field = line.split(|&b| b == b'\t').next().unwrap_or(&[]);
                let d = std::str::from_utf8(date_field)
                    .ok()
                    .and_then(|s| s.parse::<lacnet_types::Date>().ok())
                    .ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "ndt text shard date field")
                    })?
                    .days_since_epoch();
                days = Some(match days {
                    None => (d, d),
                    Some((lo, hi)) => (lo.min(d), hi.max(d)),
                });
            }
            Ok((rows, 1, days))
        }
        ShardFormat::Columnar => {
            let reader = ColumnReader::open(bytes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            Ok((
                reader.rows() as u64,
                reader.block_count() as u64,
                reader.day_span(),
            ))
        }
    }
}

/// Version tag folded into every shard fingerprint. Bump it whenever the
/// shard *generator* changes behaviour, so stale trees refresh fully
/// instead of trusting fingerprints computed for the old generator.
/// ("v2": the columnar writer switched to the indexed v2 container.)
const SHARD_GEN_VERSION: &str = "v2";

/// The fingerprint of everything a shard's bytes depend on: generator
/// version, on-disk codec (the format's flag spelling, `text` or
/// `columnar`), seed, the
/// country's effective volume scale (plus the shard label itself), and —
/// for non-default scenarios only — the scenario fingerprint. The default
/// (Venezuela) scenario adds nothing, so trees dumped before the scenario
/// layer existed stay fresh under it; switching scenarios changes every
/// shard's fingerprint and forces a full rewrite.
fn shard_fingerprint(
    config: &WorldConfig,
    scenario: &lacnet_crisis::Scenario,
    codec_tag: &str,
    shard: bandwidth::NdtShard,
) -> u64 {
    let (cc, month) = shard;
    let mut key = format!(
        "ndt-shard/{SHARD_GEN_VERSION}/{codec_tag}/{}/{}/{cc}/{month}",
        config.seed,
        config.mlab_scale_for(cc),
    );
    if !scenario.is_default() {
        let _ = write!(key, "/scn{:016x}", scenario.fingerprint());
    }
    codec::fnv1a64(key.as_bytes())
}

/// One `mlab/manifest.tsv` record.
struct ShardRecord {
    fingerprint: u64,
    content_hash: u64,
    path: String,
}

/// Parse a shard manifest written by a previous dump. Unreadable or
/// malformed manifests yield an empty map — the dump then rewrites
/// everything, which is always safe.
fn read_shard_manifest(root: &Path) -> BTreeMap<String, ShardRecord> {
    let mut map = BTreeMap::new();
    let Ok(text) = fs::read_to_string(root.join(MLAB_MANIFEST)) else {
        return map;
    };
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cols = line.split('\t');
        let (Some(label), Some(fp), Some(hash), Some(path)) =
            (cols.next(), cols.next(), cols.next(), cols.next())
        else {
            continue;
        };
        let (Ok(fingerprint), Ok(content_hash)) =
            (u64::from_str_radix(fp, 16), u64::from_str_radix(hash, 16))
        else {
            continue;
        };
        map.insert(
            label.to_owned(),
            ShardRecord {
                fingerprint,
                content_hash,
                path: path.to_owned(),
            },
        );
    }
    map
}

/// Export the world's datasets under `root` with default options (text
/// NDT shards, incremental refresh on). See [`dump_with`].
pub fn dump(world: &World, root: &Path) -> io::Result<DumpSummary> {
    dump_with(world, root, DumpOptions::default())
}

/// Export the world's datasets under `root`. Monthly resolution for every
/// archive the battery reads monthly (serial-1, pfx2as, PeeringDB, NDT
/// shards), so an [`crate::source::ArchiveWorld`] reload reproduces the
/// in-memory battery byte for byte.
///
/// NDT shards refresh incrementally: shards whose `mlab/manifest.tsv`
/// fingerprint matches the current configuration (and whose file still
/// exists) are neither regenerated nor rewritten unless
/// [`DumpOptions::force`] is set.
pub fn dump_with(world: &World, root: &Path, options: DumpOptions) -> io::Result<DumpSummary> {
    let mut summary = DumpSummary {
        files: Vec::new(),
        bytes: 0,
        shards_written: 0,
        shards_skipped: 0,
    };
    let end = world.config.end;

    // The config sidecar: the loader regenerates the model roots
    // (economy, operators, DNS world) from exactly this configuration.
    write(
        root,
        "world/config.tsv",
        &world.config.to_text(),
        &mut summary,
    )?;

    // The scenario sidecar — written only for non-default scenarios, so
    // default trees keep their historical file set byte for byte. The
    // loader applies the sidecar's overlays when regenerating; a missing
    // sidecar means the default (Venezuela) scenario. A stale sidecar
    // from a previous non-default dump is removed.
    if world.scenario.is_default() {
        let _ = fs::remove_file(root.join("world/scenario.toml"));
    } else {
        write(
            root,
            "world/scenario.toml",
            &world.scenario.to_toml(),
            &mut summary,
        )?;
    }

    // Derive the monthly pfx2as tables across workers before the
    // sequential write loop below reads them one by one.
    world.prewarm(windows::pfx2as_start(), end);

    // serial-1, one file per month of the archive.
    for (m, graph) in world.topology.iter() {
        let rel = format!("serial1/{}{:02}01.as-rel.txt", m.year(), m.month());
        let text = lacnet_bgp::serial1::to_text(&graph.edges(), &format!("lacnet world {m}"));
        write(root, &rel, &text, &mut summary)?;
    }

    // pfx2as, one file per month since 2008.
    for m in windows::pfx2as_start().through(end) {
        let table = world.pfx2as_at(m);
        write(
            root,
            &format!(
                "pfx2as/routeviews-rv2-{}{:02}01.pfx2as",
                m.year(),
                m.month()
            ),
            &table.to_text(),
            &mut summary,
        )?;
    }

    // Delegations: yearly snapshots as the registry publishes them, plus
    // one full-history file at the archive's end date — the snapshot the
    // loader rebuilds the allocation ledger from (it reads the *last*
    // delegations entry in the manifest).
    for year in 2008..=end.year() {
        let m = MonthStamp::new(year, 1);
        if m > end {
            break;
        }
        let file = world.addressing.delegation_file(Date::ymd(year, 1, 1));
        write(
            root,
            &format!("delegations/delegated-lacnic-{year}0101"),
            &file.to_text(Date::ymd(year, 1, 1)),
            &mut summary,
        )?;
    }
    let last_day = end.last_day();
    let file = world.addressing.delegation_file(last_day);
    write(
        root,
        &format!(
            "delegations/delegated-lacnic-{:04}{:02}{:02}",
            last_day.year(),
            last_day.month(),
            last_day.day()
        ),
        &file.to_text(last_day),
        &mut summary,
    )?;

    // PeeringDB dumps, one per month of the schema-v2 era.
    for (m, snap) in world.peeringdb.iter() {
        write(
            root,
            &format!(
                "peeringdb/peeringdb_2_dump_{}_{:02}_01.json",
                m.year(),
                m.month()
            ),
            &snap.to_json(),
            &mut summary,
        )?;
    }

    // Cable map.
    write(
        root,
        "cables/cable-map.json",
        &world.cables.to_json(),
        &mut summary,
    )?;

    // Off-net scans.
    for scan in &world.cert_scans {
        write(
            root,
            &format!("offnets/scan-{}.json", scan.month.year()),
            &scan.to_json(),
            &mut summary,
        )?;
    }

    // Top sites.
    for list in &world.top_sites {
        write(
            root,
            &format!("topsites/{}.json", list.country),
            &list.to_json(),
            &mut summary,
        )?;
    }

    // The full per-(country, month) NDT shard set — the same substreams
    // `world.mlab` aggregated, encoded on sweep workers and written in
    // plan order. Reading the files back in this order replays the exact
    // observation sequence into the P² estimators. Only shards whose
    // manifest fingerprint changed (or whose file is gone) are rebuilt.
    let plan = bandwidth::shard_plan(windows::mlab_start(), end);
    let previous = read_shard_manifest(root);
    // An unreadable previous index is as good as none: every skipped
    // shard is then censused from its file below.
    let previous_index = read_shard_index(root).unwrap_or_default();
    let fmt = options.shard_format;
    let codec_tag = &fmt.to_string();
    let jobs: Vec<(bandwidth::NdtShard, bool)> = plan
        .iter()
        .map(|&shard| {
            let (cc, month) = shard;
            let fingerprint = shard_fingerprint(&world.config, &world.scenario, codec_tag, shard);
            let rel = mlab_shard_path_with(shard, fmt);
            let fresh = !options.force
                && previous.get(&format!("{cc}/{month}")).is_some_and(|rec| {
                    rec.fingerprint == fingerprint && rec.path == rel && root.join(&rel).exists()
                });
            (shard, !fresh)
        })
        .collect();
    let encoded = sweep::parallel_map_with(
        sweep::worker_count(plan.len()),
        &jobs,
        |&(shard, rebuild)| -> Option<Vec<u8>> {
            if !rebuild {
                return None;
            }
            let (cc, month) = shard;
            let scale = world.config.mlab_scale_for(cc) * world.scenario.mlab_factor(cc, month);
            let rows = bandwidth::generate_shard(&world.operators, world.config.seed, scale, shard);
            Some(match fmt {
                ShardFormat::Text => {
                    let mut text = String::new();
                    for test in &rows {
                        text.push_str(&test.to_row());
                        text.push('\n');
                    }
                    text.into_bytes()
                }
                ShardFormat::Columnar => columnar::encode_rows_v2(&rows),
            })
        },
    );
    let mut shard_manifest = format!("# lacnet NDT shard manifest ({SHARD_GEN_VERSION})\n");
    let mut shard_index = format!(
        "# lacnet NDT shard index ({SHARD_GEN_VERSION}): \
         label\tpath\trows\tblocks\tmin_day\tmax_day\n"
    );
    for (&(shard, _), bytes) in jobs.iter().zip(&encoded) {
        let (cc, month) = shard;
        let label = format!("{cc}/{month}");
        let rel = mlab_shard_path_with(shard, fmt);
        let (content_hash, rows, blocks, days) = match bytes {
            Some(bytes) => {
                write_bytes(root, &rel, bytes, &mut summary)?;
                // Drop a stale sibling left by a dump in the other format
                // so the tree never holds two encodings of one shard.
                let stale = mlab_shard_path_with(
                    shard,
                    match fmt {
                        ShardFormat::Text => ShardFormat::Columnar,
                        ShardFormat::Columnar => ShardFormat::Text,
                    },
                );
                let _ = fs::remove_file(root.join(stale));
                summary.shards_written += 1;
                let (rows, blocks, days) = shard_census(bytes, fmt)?;
                (codec::fnv1a64(bytes), rows, blocks, days)
            }
            None => {
                summary.files.push(rel.clone());
                summary.shards_skipped += 1;
                // Reuse the previous index record for untouched shards;
                // one the previous index lacks is censused from the file
                // it proved exists during the freshness check.
                let (rows, blocks, days) = match previous_index.get(&shard) {
                    Some(rec) if rec.path == rel => (rec.rows, rec.blocks, rec.days),
                    _ => shard_census(&fs::read(root.join(&rel))?, fmt)?,
                };
                (previous[&label].content_hash, rows, blocks, days)
            }
        };
        let _ = writeln!(
            shard_manifest,
            "{label}\t{:016x}\t{content_hash:016x}\t{rel}",
            shard_fingerprint(&world.config, &world.scenario, codec_tag, shard),
        );
        let (min_day, max_day) = match days {
            Some((lo, hi)) => (lo.to_string(), hi.to_string()),
            None => ("-".to_owned(), "-".to_owned()),
        };
        let _ = writeln!(
            shard_index,
            "{label}\t{rel}\t{rows}\t{blocks}\t{min_day}\t{max_day}"
        );
    }
    write(root, MLAB_MANIFEST, &shard_manifest, &mut summary)?;
    write(root, MLAB_INDEX, &shard_index, &mut summary)?;

    // A traceroute archive sample: every Venezuelan probe's path to
    // GPDNS at the final month (the raw form of MSM 1591146).
    {
        use lacnet_atlas::anycast::{AnycastFleet, AnycastSite, SiteScope};
        use lacnet_atlas::gpdns::LatencyModel;
        use lacnet_atlas::traceroute;
        let month = end;
        let fleet = AnycastFleet::new(
            world
                .dns
                .gpdns_sites
                .iter()
                .filter(|s| s.active_in(month))
                .map(|s| AnycastSite {
                    id: s.id.clone(),
                    location: s.location,
                    scope: SiteScope::Global,
                })
                .collect(),
        );
        let model = LatencyModel::default();
        let transits = [
            lacnet_types::Asn(23520),
            lacnet_types::Asn(6762),
            lacnet_types::Asn(52320),
            lacnet_types::Asn(3356),
        ];
        let mut text = String::new();
        let rng_root = Rng::seeded(world.config.seed);
        for probe in world.dns.probes.active_in_country(month, country::VE) {
            if let Some(site) = fleet.catch(probe) {
                let path = traceroute::gpdns_path(probe, site, &transits);
                let mut rng = rng_root.fork(&format!("dump/traceroute/{}", probe.id));
                let tr = traceroute::simulate(probe, site, &model, &path, month, &mut rng);
                text.push_str(&tr.to_text());
            }
        }
        write(root, "atlas/traceroutes-ve.txt", &text, &mut summary)?;
    }

    // Daily reachability for the blackout year, one file per country.
    let reach = blackouts::daily_reachability_with(
        &world.dns,
        Date::ymd(2019, 1, 1),
        Date::ymd(2019, 12, 31),
        world.config.seed,
        &world.scenario,
    );
    for (cc, series) in &reach {
        write(
            root,
            &format!("atlas/reachability-{cc}-2019.tsv"),
            &series.to_tsv(),
            &mut summary,
        )?;
    }

    // Manifest.
    let mut manifest = String::new();
    let _ = writeln!(
        manifest,
        "# lacnet dataset dump (seed {:#x})",
        world.config.seed
    );
    for f in &summary.files {
        let _ = writeln!(manifest, "{f}");
    }
    // The manifest lists itself so `verify` covers the whole tree.
    let _ = writeln!(manifest, "MANIFEST.txt");
    write(root, "MANIFEST.txt", &manifest, &mut summary)?;
    Ok(summary)
}

/// Re-parse every exported file, proving the tree is consumable by the
/// substrate parsers alone (no access to the in-memory world).
///
/// NDT shards are the one archive that is unbounded at real scale, so
/// text shards are *streamed* through `ndt::stream_rows` into an
/// aggregator without materializing the file; columnar `.ndtc` shards
/// are read whole and decoded through [`ColumnReader`] with every
/// structural check applied, each block's CRC-32 included. The shard
/// manifest and the shard index are verified structurally: the index
/// must parse, and every shard either lists must exist.
pub fn verify(root: &Path) -> Result<usize> {
    let mut checked = 0usize;
    let read = |rel: &str| -> String { fs::read_to_string(root.join(rel)).unwrap_or_default() };
    let manifest = read("MANIFEST.txt");
    let mut agg =
        lacnet_mlab::aggregate::MonthlyAggregator::new(lacnet_mlab::aggregate::Mode::Streaming);
    for rel in manifest.lines().filter(|l| !l.starts_with('#')) {
        if rel == MLAB_MANIFEST {
            // Structural check: every listed shard file must exist.
            for (label, rec) in read_shard_manifest(root) {
                if !root.join(&rec.path).exists() {
                    return Err(lacnet_types::Error::missing(
                        "NDT shard from manifest",
                        &label,
                    ));
                }
            }
            checked += 1;
            continue;
        }
        if rel == MLAB_INDEX {
            // Structural check: every indexed shard file must exist.
            for ((cc, month), rec) in read_shard_index(root)? {
                if !root.join(&rec.path).exists() {
                    return Err(Error::missing(
                        "NDT shard from index",
                        format!("{cc}/{month}"),
                    ));
                }
            }
            checked += 1;
            continue;
        }
        if rel.starts_with("mlab/") {
            if rel.ends_with(".ndtc") {
                let bytes = fs::read(root.join(rel))
                    .map_err(|_| lacnet_types::Error::missing("NDT archive shard", rel))?;
                let (batch, _) =
                    ColumnReader::open(&bytes)?.read_counted(&ColumnSelection::all())?;
                agg.observe_columns(&batch);
            } else {
                let file = fs::File::open(root.join(rel))
                    .map_err(|_| lacnet_types::Error::missing("NDT archive shard", rel))?;
                agg.observe_reader(io::BufReader::new(file))?;
            }
            checked += 1;
            continue;
        }
        let text = read(rel);
        if rel.starts_with("serial1/") {
            lacnet_bgp::serial1::parse(&text)?;
        } else if rel.starts_with("pfx2as/") {
            lacnet_bgp::PfxToAs::parse(&text)?;
        } else if rel.starts_with("delegations/") {
            lacnet_registry::DelegationFile::parse(&text)?;
        } else if rel.starts_with("peeringdb/") {
            lacnet_peeringdb::Snapshot::from_json(&text)?.validate()?;
        } else if rel.starts_with("cables/") {
            lacnet_telegeo::CableMap::from_json(&text)?;
        } else if rel.starts_with("offnets/") {
            lacnet_offnets::CertScan::from_json(&text)?;
        } else if rel.starts_with("topsites/") {
            lacnet_webmeas::CountryTopSites::from_json(&text)?;
        } else if rel.starts_with("atlas/traceroutes") {
            lacnet_atlas::traceroute::parse_traceroutes(&text)?;
        } else if rel.starts_with("atlas/reachability") {
            lacnet_atlas::outages::ReachabilitySeries::parse_tsv(&text)?;
        } else if rel == "world/scenario.toml" {
            lacnet_crisis::Scenario::parse(&text).map_err(lacnet_types::Error::from)?;
        } else if rel.starts_with("world/") {
            lacnet_crisis::WorldConfig::parse(&text)?;
        } else if rel.starts_with("atlas/") || rel == "MANIFEST.txt" {
            // Plain TSV / manifest: nothing structured to validate.
        }
        checked += 1;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_and_verify_roundtrip() {
        let world = crate::experiments::testworld::world();
        let dir = std::env::temp_dir().join(format!("lacnet-dump-{}", std::process::id()));
        let summary = dump(world, &dir).expect("dump succeeds");
        assert!(summary.files.len() > 2000, "{} files", summary.files.len());
        assert!(summary.bytes > 1_000_000, "{} bytes", summary.bytes);
        let checked = verify(&dir).expect("every file parses");
        assert_eq!(checked, summary.files.len());
        // Spot-check a known file exists with plausible content.
        let serial = std::fs::read_to_string(dir.join("serial1/20130101.as-rel.txt")).unwrap();
        assert!(serial.contains("|8048|-1"), "CANTV has providers in 2013");
        // The shard tree covers the full per-(country, month) plan.
        let ve_july = std::fs::read_to_string(dir.join("mlab/VE/ndt-2023-07.tsv")).unwrap();
        assert!(ve_july.lines().count() > 10);
        // A fresh dump writes every shard; a re-dump of the same config
        // skips every one.
        let plan = bandwidth::shard_plan(windows::mlab_start(), world.config.end);
        assert_eq!(summary.shards_written, plan.len());
        assert_eq!(summary.shards_skipped, 0);
        let again = dump(world, &dir).expect("re-dump succeeds");
        assert_eq!(again.shards_written, 0);
        assert_eq!(again.shards_skipped, plan.len());
        assert_eq!(again.files, summary.files);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn columnar_dump_verifies_and_switches_formats_cleanly() {
        let world = crate::experiments::testworld::world();
        let dir = std::env::temp_dir().join(format!("lacnet-dump-col-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let columnar = DumpOptions {
            shard_format: ShardFormat::Columnar,
            ..DumpOptions::default()
        };
        let summary = dump_with(world, &dir, columnar).expect("columnar dump succeeds");
        assert!(summary.shards_written > 0);
        let checked = verify(&dir).expect("columnar tree verifies");
        assert_eq!(checked, summary.files.len());
        let ve_july = dir.join("mlab/VE/ndt-2023-07.ndtc");
        assert!(ve_july.exists());
        // Re-dumping in text format rewrites everything (fingerprints
        // change with the format) and removes the columnar siblings.
        let text = dump_with(world, &dir, DumpOptions::default()).expect("text re-dump");
        assert_eq!(text.shards_skipped, 0);
        assert!(!ve_july.exists(), "stale columnar sibling removed");
        assert!(dir.join("mlab/VE/ndt-2023-07.tsv").exists());
        // `--force` rewrites even an up-to-date tree.
        let forced = dump_with(
            world,
            &dir,
            DumpOptions {
                shard_format: ShardFormat::Text,
                force: true,
            },
        )
        .expect("forced re-dump");
        assert_eq!(forced.shards_skipped, 0);
        assert_eq!(forced.shards_written, text.shards_written);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_index_tracks_the_tree() {
        let world = crate::experiments::testworld::world();
        let dir = std::env::temp_dir().join(format!("lacnet-dump-idx-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let columnar = DumpOptions {
            shard_format: ShardFormat::Columnar,
            ..DumpOptions::default()
        };
        dump_with(world, &dir, columnar).expect("v2 dump succeeds");
        let plan = bandwidth::shard_plan(windows::mlab_start(), world.config.end);
        let index = read_shard_index(&dir).expect("index parses");
        assert_eq!(index.len(), plan.len());
        let total_rows: u64 = index.values().map(|r| r.rows).sum();
        assert!(total_rows > 0);
        for rec in index.values() {
            assert!(dir.join(&rec.path).exists(), "{} missing", rec.path);
            assert!(rec.blocks >= 1);
            assert_eq!(rec.days.is_none(), rec.rows == 0, "{}", rec.path);
        }
        let ve_july = std::fs::read(dir.join("mlab/VE/ndt-2023-07.ndtc")).unwrap();
        assert_eq!(ve_july[4], 2, "the columnar writer emits v2");
        // A no-op re-dump reproduces the index from reused records.
        dump_with(world, &dir, columnar).expect("re-dump succeeds");
        assert_eq!(read_shard_index(&dir).unwrap(), index);
        // A re-dump over a tree whose index is unreadable treats it as
        // absent: it censuses every skipped shard and writes it afresh.
        std::fs::write(dir.join(MLAB_INDEX), "VE/2023-07\tshort\n").unwrap();
        let again = dump_with(world, &dir, columnar).expect("re-dump succeeds");
        assert_eq!(again.shards_written, 0);
        assert_eq!(read_shard_index(&dir).unwrap(), index);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_shard_index_records_are_typed_errors_naming_the_line() {
        let dir = std::env::temp_dir().join(format!("lacnet-idx-bad-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        match read_shard_index(&dir) {
            Err(Error::Missing { key, .. }) => assert!(key.ends_with(MLAB_INDEX), "{key}"),
            other => panic!("a missing index must fail typed, got {other:?}"),
        }
        std::fs::create_dir_all(dir.join("mlab")).unwrap();
        let good = "# header\nVE/2023-07\tmlab/VE/ndt-2023-07.ndtc\t3\t1\t19539\t19569\n\
                    VE/2023-08\tmlab/VE/ndt-2023-08.ndtc\t0\t0\t-\t-\n";
        std::fs::write(dir.join(MLAB_INDEX), good).unwrap();
        let index = read_shard_index(&dir).expect("well-formed index parses");
        assert_eq!(index.len(), 2);
        let july = &index[&(country::VE, MonthStamp::new(2023, 7))];
        assert_eq!((july.rows, july.days), (3, Some((19539, 19569))));
        assert_eq!(index[&(country::VE, MonthStamp::new(2023, 8))].days, None);
        for bad in [
            "VE/2023-07\tmlab/VE/ndt-2023-07.ndtc\t3\t1",
            "VE/2023-07\tmlab/VE/ndt-2023-07.ndtc\t3\t1\t19539\t19569\textra",
            "VEN/2023-07\tmlab/VE/ndt-2023-07.ndtc\t3\t1\t19539\t19569",
            "VE/2023-13\tmlab/VE/ndt-2023-13.ndtc\t3\t1\t19539\t19569",
            "VE/2023-07\tmlab/VE/ndt-2023-07.ndtc\tmany\t1\t19539\t19569",
            "VE/2023-07\tmlab/VE/ndt-2023-07.ndtc\t3\t1\t-\t-",
            "VE/2023-07\tmlab/VE/ndt-2023-07.ndtc\t0\t0\t19539\t19569",
            "VE/2023-07\tmlab/VE/ndt-2023-07.ndtc\t3\t1\t19569\t19539",
        ] {
            std::fs::write(dir.join(MLAB_INDEX), format!("{good}{bad}\n")).unwrap();
            match read_shard_index(&dir) {
                Err(Error::Parse { input, .. }) => {
                    assert!(input.starts_with("mlab/index.tsv:4: "), "{input}")
                }
                other => panic!("{bad:?} must fail typed, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
