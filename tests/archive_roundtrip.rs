//! Archive round-trip equivalence: the whole battery, byte for byte,
//! from parsed files.
//!
//! The tentpole claim of the `DataSource` layer is that nothing in the
//! analysis depends on *how* the datasets arrived — a freshly generated
//! world and the same world dumped to its native archive formats and
//! parsed back must drive every experiment to identical output. This
//! suite dumps the fixed-seed test world once *per NDT shard format*
//! (text `.tsv` and columnar `.ndtc`), reloads each tree through
//! [`DataSource::from_archive`], and requires the canonical TSV render
//! of all 22 paper artifacts *and* the three extensions to match both
//! the in-memory run and the checked-in `tests/golden/` fixtures.

use lacnet::core::render::canonical_tsv;
use lacnet::core::{datasets, experiments, extensions, DataSource, DumpOptions};
use lacnet::crisis::{World, WorldConfig};
use lacnet::mlab::{
    ColumnReader, ColumnSelection, ColumnSet, DecodeScratch, ReadStats, ShardFormat,
};
use std::path::PathBuf;
use std::sync::OnceLock;

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::generate(WorldConfig::test()))
}

/// Dump the test world once per shard format and keep the archive-backed
/// source for every test in the binary — each dump tree holds a few
/// thousand files, so the suite parses each a single time.
fn archive_source_for(format: ShardFormat) -> &'static DataSource<'static> {
    static TEXT: OnceLock<DataSource<'static>> = OnceLock::new();
    static COLUMNAR: OnceLock<DataSource<'static>> = OnceLock::new();
    let cell = match format {
        ShardFormat::Text => &TEXT,
        ShardFormat::Columnar => &COLUMNAR,
    };
    cell.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("lacnet-roundtrip-{format}-{}", std::process::id()));
        let options = DumpOptions {
            shard_format: format,
            ..DumpOptions::default()
        };
        datasets::dump_with(world(), &dir, options).expect("dump succeeds");
        DataSource::from_archive_with(&dir, Some(format)).expect("archive loads")
    })
}

fn archive_source() -> &'static DataSource<'static> {
    archive_source_for(ShardFormat::Text)
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Battery + extensions from the archive backend, render order stable.
fn archive_results_for(format: ShardFormat) -> Vec<lacnet::core::ExperimentResult> {
    let src = archive_source_for(format);
    let mut results = experiments::all(src);
    results.extend(extensions::all(src));
    results
}

fn archive_results() -> Vec<lacnet::core::ExperimentResult> {
    archive_results_for(ShardFormat::Text)
}

#[test]
fn archive_battery_matches_in_memory_byte_for_byte() {
    let in_memory = DataSource::in_memory(world());
    let mut reference = experiments::all(&in_memory);
    reference.extend(extensions::all(&in_memory));
    let reloaded = archive_results();
    assert_eq!(reference.len(), reloaded.len());
    for (mem, arch) in reference.iter().zip(&reloaded) {
        assert_eq!(mem.id, arch.id, "battery order must not depend on backend");
        assert_eq!(
            canonical_tsv(mem),
            canonical_tsv(arch),
            "{} diverges between the in-memory and archive backends",
            mem.id
        );
    }
}

#[test]
fn archive_battery_matches_golden_fixtures() {
    // Stronger than backend agreement: the archive run must land on the
    // exact bytes the golden regression fence holds, so a format change
    // that breaks parsing cannot hide behind a matching in-memory change.
    for result in archive_results() {
        let path = fixture_dir().join(format!("{}.tsv", result.id));
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden fixture {}; run `UPDATE_GOLDEN=1 cargo test --test golden`",
                path.display()
            )
        });
        assert_eq!(
            canonical_tsv(&result),
            expected,
            "{} from the archive diverges from its golden fixture",
            result.id
        );
    }
}

#[test]
fn columnar_archive_battery_matches_text_archive_byte_for_byte() {
    // The columnar `.ndtc` shard encoding must be invisible to the
    // battery: both formats decode into the identical observation
    // sequence, so every artifact renders byte-for-byte the same.
    let text = archive_results_for(ShardFormat::Text);
    let columnar = archive_results_for(ShardFormat::Columnar);
    assert_eq!(text.len(), columnar.len());
    for (t, c) in text.iter().zip(&columnar) {
        assert_eq!(t.id, c.id);
        assert_eq!(
            canonical_tsv(t),
            canonical_tsv(c),
            "{} diverges between text and columnar NDT shards",
            t.id
        );
    }
}

#[test]
fn columnar_archive_battery_matches_golden_fixtures() {
    for result in archive_results_for(ShardFormat::Columnar) {
        let path = fixture_dir().join(format!("{}.tsv", result.id));
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden fixture {}; run `UPDATE_GOLDEN=1 cargo test --test golden`",
                path.display()
            )
        });
        assert_eq!(
            canonical_tsv(&result),
            expected,
            "{} from the columnar archive diverges from its golden fixture",
            result.id
        );
    }
}

#[test]
fn single_month_query_decodes_only_the_matching_shard_bytes() {
    use lacnet::types::country;
    let src = archive_source_for(ShardFormat::Columnar);
    let (month, _) = src
        .mlab()
        .median_series(country::VE)
        .last()
        .expect("test world has VE data");
    let stats = src
        .ndt_month_stats(country::VE, month)
        .expect("query succeeds")
        .expect("shard exists");
    assert_eq!(stats.format, "columnar-v2");
    assert!(stats.rows > 0);
    // The counting reader saw only the matching blocks, and of those
    // only the download column the query asked for.
    assert!(stats.read.blocks_decoded >= 1);
    assert!(stats.read.blocks_decoded <= stats.read.blocks_total);
    assert_eq!(stats.read.columns_decoded, stats.read.blocks_decoded);
    // The decoded bytes are a strict subset of the one matching shard
    // and a sliver of the tree's whole columnar payload.
    let DataSource::Archive(archive) = src else {
        panic!("columnar source is archive-backed");
    };
    let shard_len = std::fs::read(archive.root().join(format!("mlab/VE/ndt-{month}.ndtc")))
        .expect("matching shard")
        .len();
    let mut tree_total = 0usize;
    for country_dir in std::fs::read_dir(archive.root().join("mlab")).expect("mlab dir") {
        let country_dir = country_dir.expect("entry").path();
        if !country_dir.is_dir() {
            continue;
        }
        for shard in std::fs::read_dir(&country_dir).expect("country dir") {
            let shard = shard.expect("entry").path();
            if shard.extension().and_then(|e| e.to_str()) == Some("ndtc") {
                tree_total += std::fs::metadata(&shard).expect("metadata").len() as usize;
            }
        }
    }
    assert!(
        stats.read.bytes_decoded < shard_len,
        "query decoded {} of the {shard_len}-byte shard",
        stats.read.bytes_decoded
    );
    assert!(
        stats.read.bytes_decoded * 4 < tree_total,
        "query decoded {} of the {tree_total}-byte tree",
        stats.read.bytes_decoded
    );
    // The text rows take their full-parse path and still land on the
    // identical count and bit-identical P² median.
    let answer = archive_source_for(ShardFormat::Text)
        .ndt_month_stats(country::VE, month)
        .expect("query succeeds")
        .expect("shard exists");
    assert_eq!(answer.format, "text");
    assert_eq!(answer.rows, stats.rows, "text row count diverges");
    assert_eq!(
        answer.median_download, stats.median_download,
        "text median diverges"
    );
}

#[test]
fn range_query_equals_the_merge_of_its_single_month_queries() {
    use lacnet::types::country;
    let src = archive_source_for(ShardFormat::Columnar);
    let series: Vec<_> = src.mlab().median_series(country::VE).iter().collect();
    assert!(series.len() >= 4, "test world spans months");
    let (from, _) = series[series.len() - 4];
    let (to, _) = *series.last().unwrap();

    let range = src
        .ndt_range_stats(country::VE, from, to)
        .expect("range query succeeds");
    assert_eq!(range.months_queried, 4);
    assert_eq!(range.months.len(), 4);

    // The merged answer is exactly the fold of per-month references
    // taken without `ndt_range_stats` — a single month is a one-month
    // range, so comparing against `ndt_month_stats` would compare the
    // function with itself. Rows and the P² median come from the
    // in-memory world's resident groups; ReadStats from a direct
    // selective scan of each month's shard file. Agreement pins the
    // parallel fan-out with plan-order merge to a sequential month walk.
    let DataSource::Archive(archive) = src else {
        panic!("columnar source is archive-backed");
    };
    let mut rows = 0usize;
    let mut read = ReadStats::default();
    let mut median_sum = 0.0f64;
    let mut medians = 0usize;
    for &(month, ref merged) in &range.months {
        let group = world()
            .mlab
            .group(country::VE, month)
            .expect("in-memory group for listed month");
        assert_eq!(merged.rows, group.count(), "{month} rows diverge");
        assert_eq!(
            merged.median_download,
            group.median(),
            "{month} median diverges"
        );
        let bytes = std::fs::read(archive.root().join(format!("mlab/VE/ndt-{month}.ndtc")))
            .expect("month shard");
        let selection = ColumnSelection::columns(ColumnSet::DOWNLOAD).with_country(country::VE);
        let scanned = ColumnReader::open(&bytes)
            .and_then(|r| r.scan_counted(&selection, &mut DecodeScratch::new(), |_| Ok(())))
            .expect("shard scans");
        assert_eq!(merged.read, scanned, "{month} ReadStats diverge");
        rows += group.count();
        read.absorb(scanned);
        if let Some(m) = group.median() {
            median_sum += m;
            medians += 1;
        }
    }
    assert_eq!(range.rows, rows);
    assert_eq!(range.read, read);
    assert_eq!(
        range.mean_monthly_median,
        (medians > 0).then(|| median_sum / medians as f64)
    );

    // The fan-out decoded only the download column of the matching
    // blocks across every queried shard.
    assert!(range.read.blocks_decoded >= 4);
    assert_eq!(range.read.columns_decoded, range.read.blocks_decoded);

    // The text tree answers the same numbers through the same range
    // entry point, on its full-parse path.
    let answer = archive_source_for(ShardFormat::Text)
        .ndt_range_stats(country::VE, from, to)
        .expect("range query succeeds");
    assert_eq!(answer.rows, range.rows);
    assert_eq!(answer.months.len(), range.months.len());
    for ((m_a, a), (m_b, b)) in answer.months.iter().zip(&range.months) {
        assert_eq!(m_a, m_b);
        assert_eq!(a.rows, b.rows, "{m_a}");
        assert_eq!(a.median_download, b.median_download, "{m_a}");
    }
    assert_eq!(answer.mean_monthly_median, range.mean_monthly_median);
}

#[test]
fn archive_backend_reports_itself() {
    assert_eq!(archive_source().backend(), "archive");
    assert_eq!(archive_source().config(), &world().config);
    assert_eq!(
        archive_source_for(ShardFormat::Columnar).backend(),
        "archive"
    );
}
