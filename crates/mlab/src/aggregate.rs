//! Month-country aggregation of NDT tests.
//!
//! The real dataset is ≈447M rows; the paper reduces it to one median per
//! `(country, month)`. Sorting every group is fine for a few million rows
//! but memory-hungry at archive scale, so the aggregator runs the P²
//! streaming estimator per group by default, with an exact mode kept for
//! verification and for the `lacnet-bench` ablation.

use crate::ndt::NdtTest;
use lacnet_types::stats::{self, P2Quantile};
use lacnet_types::{CountryCode, MonthStamp, TimeSeries};
use std::collections::BTreeMap;

/// Aggregation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// P² streaming median: O(1) memory per group.
    Streaming,
    /// Exact median: buffers every observation per group.
    Exact,
}

/// Per-group accumulated state.
#[derive(Debug, Clone)]
pub enum GroupStats {
    /// Streaming accumulator.
    Streaming(P2Quantile),
    /// Exact buffer.
    Exact(Vec<f64>),
}

impl GroupStats {
    fn observe(&mut self, x: f64) {
        match self {
            GroupStats::Streaming(p2) => p2.observe(x),
            GroupStats::Exact(buf) => buf.push(x),
        }
    }

    /// Number of observations in the group.
    pub fn count(&self) -> usize {
        match self {
            GroupStats::Streaming(p2) => p2.count(),
            GroupStats::Exact(buf) => buf.len(),
        }
    }

    /// The group median (estimate in streaming mode).
    pub fn median(&self) -> Option<f64> {
        match self {
            GroupStats::Streaming(p2) => p2.value(),
            GroupStats::Exact(buf) => stats::median(&mut buf.clone()),
        }
    }
}

/// Streaming month-country aggregator over NDT download speeds.
#[derive(Debug, Clone)]
pub struct MonthlyAggregator {
    mode: Mode,
    groups: BTreeMap<(CountryCode, MonthStamp), GroupStats>,
}

impl MonthlyAggregator {
    /// The `.ndtc` columns [`observe_columns`] reads — what an archive
    /// load must decode for the resident aggregate, regardless of which
    /// endpoints are registered.
    ///
    /// [`observe_columns`]: MonthlyAggregator::observe_columns
    pub const REQUIRED_COLUMNS: crate::columnar::ColumnSet = crate::columnar::ColumnSet::AGGREGATE;

    /// Create an aggregator in the given mode.
    pub fn new(mode: Mode) -> Self {
        MonthlyAggregator {
            mode,
            groups: BTreeMap::new(),
        }
    }

    /// Feed one test.
    pub fn observe(&mut self, test: &NdtTest) {
        let key = (test.country, test.date.month_stamp());
        let entry = self.groups.entry(key).or_insert_with(|| match self.mode {
            Mode::Streaming => GroupStats::Streaming(P2Quantile::median()),
            Mode::Exact => GroupStats::Exact(Vec::new()),
        });
        entry.observe(test.download_mbps);
    }

    /// Feed many tests.
    pub fn observe_all<'a>(&mut self, tests: impl IntoIterator<Item = &'a NdtTest>) {
        for t in tests {
            self.observe(t);
        }
    }

    /// Reduce an archive shard straight off a reader via
    /// [`crate::ndt::stream_rows`], without materializing the file.
    /// Returns the number of rows observed.
    pub fn observe_reader<R: std::io::BufRead>(
        &mut self,
        reader: R,
    ) -> lacnet_types::Result<usize> {
        let mut n = 0;
        for row in crate::ndt::stream_rows(reader) {
            self.observe(&row?);
            n += 1;
        }
        Ok(n)
    }

    /// Reduce a decoded columnar shard, row order. Reads the country,
    /// date and download columns directly — no `NdtTest` is ever
    /// materialized — yet feeds each group's P² estimator the exact
    /// observation sequence [`observe_reader`] feeds it from the text
    /// rendering of the same shard, so the estimator state is
    /// byte-identical between the two paths (asserted by this module's
    /// tests and the archive round-trip suite).
    ///
    /// [`observe_reader`]: MonthlyAggregator::observe_reader
    pub fn observe_columns(&mut self, batch: &crate::columnar::ColumnBatch) -> usize {
        let mode = self.mode;
        for ((&cc, &date), &down) in batch
            .countries()
            .iter()
            .zip(batch.dates())
            .zip(batch.download())
        {
            let entry = self
                .groups
                .entry((cc, date.month_stamp()))
                .or_insert_with(|| match mode {
                    Mode::Streaming => GroupStats::Streaming(P2Quantile::median()),
                    Mode::Exact => GroupStats::Exact(Vec::new()),
                });
            entry.observe(down);
        }
        batch.len()
    }

    /// Number of `(country, month)` groups seen.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The accumulated state for one `(country, month)` group, if any —
    /// the in-memory backend of the `/ndt/{cc}/{month}` query endpoint.
    pub fn group(&self, country: CountryCode, month: MonthStamp) -> Option<&GroupStats> {
        self.groups.get(&(country, month))
    }

    /// Total number of tests observed.
    pub fn test_count(&self) -> usize {
        self.groups.values().map(GroupStats::count).sum()
    }

    /// Tests observed for one country (across months).
    pub fn test_count_for(&self, country: CountryCode) -> usize {
        self.groups
            .iter()
            .filter(|((cc, _), _)| *cc == country)
            .map(|(_, g)| g.count())
            .sum()
    }

    /// The median download series for `country` — one Fig. 11 line.
    pub fn median_series(&self, country: CountryCode) -> TimeSeries {
        self.groups
            .iter()
            .filter(|((cc, _), _)| *cc == country)
            .filter_map(|((_, m), g)| g.median().map(|v| (*m, v)))
            .collect()
    }

    /// Countries present in the aggregate.
    pub fn countries(&self) -> Vec<CountryCode> {
        let mut out: Vec<CountryCode> = self.groups.keys().map(|(cc, _)| *cc).collect();
        out.sort();
        out.dedup();
        out
    }

    /// The cross-country mean of per-country medians, per month — the
    /// "mean LACNIC" curve of Fig. 11.
    pub fn regional_mean_series(&self) -> TimeSeries {
        let per_country: Vec<TimeSeries> = self
            .countries()
            .iter()
            .map(|&cc| self.median_series(cc))
            .collect();
        let refs: Vec<&TimeSeries> = per_country.iter().collect();
        lacnet_types::series::mean_of(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::{country, Asn, Date};

    fn test(cc: CountryCode, y: i32, m: u8, d: u8, down: f64) -> NdtTest {
        NdtTest {
            date: Date::ymd(y, m, d),
            country: cc,
            asn: Asn(8048),
            download_mbps: down,
            upload_mbps: down / 3.0,
            min_rtt_ms: 40.0,
            loss_rate: 0.01,
        }
    }

    #[test]
    fn exact_grouping_and_medians() {
        let mut agg = MonthlyAggregator::new(Mode::Exact);
        agg.observe_all(&[
            test(country::VE, 2019, 7, 1, 0.5),
            test(country::VE, 2019, 7, 10, 0.9),
            test(country::VE, 2019, 7, 20, 0.7),
            test(country::VE, 2019, 8, 1, 1.1),
            test(country::BR, 2019, 7, 1, 20.0),
        ]);
        assert_eq!(agg.group_count(), 3);
        assert_eq!(agg.test_count(), 5);
        assert_eq!(agg.test_count_for(country::VE), 4);
        let ve = agg.median_series(country::VE);
        assert_eq!(ve.get(MonthStamp::new(2019, 7)), Some(0.7));
        assert_eq!(ve.get(MonthStamp::new(2019, 8)), Some(1.1));
        assert_eq!(agg.countries(), vec![country::BR, country::VE]);
    }

    #[test]
    fn regional_mean_averages_country_medians() {
        let mut agg = MonthlyAggregator::new(Mode::Exact);
        agg.observe_all(&[
            test(country::VE, 2019, 7, 1, 1.0),
            test(country::BR, 2019, 7, 1, 21.0),
        ]);
        let mean = agg.regional_mean_series();
        assert_eq!(mean.get(MonthStamp::new(2019, 7)), Some(11.0));
    }

    #[test]
    fn streaming_matches_exact_within_tolerance() {
        use lacnet_types::rng::Rng;
        let mut rng = Rng::seeded(7);
        let mut streaming = MonthlyAggregator::new(Mode::Streaming);
        let mut exact = MonthlyAggregator::new(Mode::Exact);
        for i in 0..30_000 {
            let day = (i % 28) as u8 + 1;
            let t = test(country::VE, 2019, 7, day, rng.log_normal(0.0, 0.8));
            streaming.observe(&t);
            exact.observe(&t);
        }
        let s = streaming
            .median_series(country::VE)
            .get(MonthStamp::new(2019, 7))
            .unwrap();
        let e = exact
            .median_series(country::VE)
            .get(MonthStamp::new(2019, 7))
            .unwrap();
        assert!((s - e).abs() / e < 0.05, "streaming {s} vs exact {e}");
    }

    #[test]
    fn observe_reader_equals_in_memory_path() {
        let rows = [
            test(country::VE, 2019, 7, 1, 0.5),
            test(country::VE, 2019, 7, 10, 0.9),
            test(country::BR, 2019, 7, 1, 20.0),
        ];
        let mut text = String::from("# shard header\n");
        for r in &rows {
            text.push_str(&r.to_row());
            text.push('\n');
        }
        let mut streamed = MonthlyAggregator::new(Mode::Exact);
        let n = streamed.observe_reader(text.as_bytes()).unwrap();
        assert_eq!(n, rows.len());
        let mut direct = MonthlyAggregator::new(Mode::Exact);
        direct.observe_all(&rows);
        assert_eq!(streamed.group_count(), direct.group_count());
        assert_eq!(
            streamed
                .median_series(country::VE)
                .get(MonthStamp::new(2019, 7)),
            direct
                .median_series(country::VE)
                .get(MonthStamp::new(2019, 7)),
        );
        let mut broken = MonthlyAggregator::new(Mode::Exact);
        assert!(broken.observe_reader("bad\trow\n".as_bytes()).is_err());
    }

    #[test]
    fn observe_columns_state_is_byte_identical_to_observe_reader() {
        use lacnet_types::rng::Rng;
        let mut rng = Rng::seeded(11);
        let mut rows = Vec::new();
        for i in 0..5_000 {
            let cc = if i % 3 == 0 { country::BR } else { country::VE };
            let day = (i % 28) as u8 + 1;
            rows.push(test(
                cc,
                2019,
                1 + (i % 12) as u8,
                day,
                rng.log_normal(0.0, 0.9),
            ));
        }
        let mut text = String::new();
        for r in &rows {
            text.push_str(&r.to_row());
            text.push('\n');
        }
        let bytes = crate::columnar::encode_rows_v2(&rows);
        let (batch, _) = crate::columnar::ColumnReader::open(&bytes)
            .and_then(|r| r.read_counted(&crate::columnar::ColumnSelection::all()))
            .unwrap();

        let mut from_text = MonthlyAggregator::new(Mode::Streaming);
        from_text.observe_reader(text.as_bytes()).unwrap();
        let mut from_columns = MonthlyAggregator::new(Mode::Streaming);
        assert_eq!(from_columns.observe_columns(&batch), rows.len());

        // Debug formatting spells out every P² marker height, position
        // and increment with shortest-roundtrip floats (and tells -0.0
        // from 0.0), so string equality here is bit-level equality of
        // the full estimator state.
        assert_eq!(format!("{from_text:?}"), format!("{from_columns:?}"));
    }

    #[test]
    fn empty_aggregator() {
        let agg = MonthlyAggregator::new(Mode::Streaming);
        assert_eq!(agg.group_count(), 0);
        assert!(agg.median_series(country::VE).is_empty());
        assert!(agg.regional_mean_series().is_empty());
        assert!(agg.countries().is_empty());
    }
}
