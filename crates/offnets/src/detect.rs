//! The off-net detection method (Gigis et al.) and its aggregations.

use crate::as2org::AsOrgMap;
use crate::certs::CertScan;
use crate::hypergiants::Hypergiant;
use crate::population::PopulationEstimates;
use lacnet_types::{Asn, CountryCode, MonthStamp, TimeSeries};
use std::collections::BTreeSet;

/// ASes detected hosting a hypergiant's off-net replicas in one scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffnetHosts {
    /// The scan month.
    pub month: MonthStamp,
    /// The hypergiant name.
    pub hypergiant: &'static str,
    /// Host ASes (never the hypergiant's own).
    pub hosts: BTreeSet<Asn>,
}

/// Run the detection over one scan for one hypergiant: a certificate
/// asserting one of the hypergiant's names, served from an AS the
/// hypergiant does not own, marks that AS as an off-net host.
pub fn detect_offnets(scan: &CertScan, hg: &Hypergiant) -> OffnetHosts {
    let mut hosts = BTreeSet::new();
    for rec in &scan.records {
        if hg.owns_asn(rec.asn) {
            continue;
        }
        if rec.cert.names().any(|n| hg.matches_name(n)) {
            hosts.insert(rec.asn);
        }
    }
    OffnetHosts {
        month: scan.month,
        hypergiant: hg.name,
        hosts,
    }
}

/// The Fig. 7/18 metric for one `(hypergiant, country, scan)`: the
/// percentage of the country's Internet users inside organisations
/// hosting that hypergiant's off-nets.
pub fn population_coverage(
    hosts: &OffnetHosts,
    country: CountryCode,
    populations: &PopulationEstimates,
    as2org: &AsOrgMap,
) -> f64 {
    let orgs: BTreeSet<u32> = hosts.hosts.iter().map(|&a| as2org.org_of(a)).collect();
    populations.org_share_of(country, &orgs, as2org) * 100.0
}

/// Coverage time series of one hypergiant for each of `countries`, in
/// the same order. Detection runs once per scan; every country reads the
/// same host set.
pub fn coverage_by_country(
    scans: &[CertScan],
    hg: &Hypergiant,
    countries: &[CountryCode],
    populations: &PopulationEstimates,
    as2org: &AsOrgMap,
) -> Vec<TimeSeries> {
    let hosts: Vec<OffnetHosts> = scans.iter().map(|scan| detect_offnets(scan, hg)).collect();
    countries
        .iter()
        .map(|&cc| {
            hosts
                .iter()
                .map(|h| (h.month, population_coverage(h, cc, populations, as2org)))
                .collect()
        })
        .collect()
}

/// Coverage time series for one hypergiant and country across scans.
pub fn coverage_series(
    scans: &[CertScan],
    hg: &Hypergiant,
    country: CountryCode,
    populations: &PopulationEstimates,
    as2org: &AsOrgMap,
) -> TimeSeries {
    coverage_by_country(scans, hg, &[country], populations, as2org)
        .pop()
        .expect("one series per country")
}

/// Mean coverage per country over a scan set, used for the paper's
/// rankings ("Venezuela ranks 19/27 for Google, …").
pub fn mean_coverage_ranking(
    scans: &[CertScan],
    hg: &Hypergiant,
    countries: &[CountryCode],
    populations: &PopulationEstimates,
    as2org: &AsOrgMap,
) -> Vec<(CountryCode, f64)> {
    let series = coverage_by_country(scans, hg, countries, populations, as2org);
    let mut means: Vec<(CountryCode, f64)> = countries
        .iter()
        .zip(&series)
        .map(|(&cc, s)| (cc, s.mean().unwrap_or(0.0)))
        .collect();
    means.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("coverage is finite")
            .then(a.0.cmp(&b.0))
    });
    means
}

/// The rank (1-based) of `country` in a ranking produced by
/// [`mean_coverage_ranking`]; `None` if absent.
pub fn rank_of(ranking: &[(CountryCode, f64)], country: CountryCode) -> Option<usize> {
    ranking
        .iter()
        .position(|&(cc, _)| cc == country)
        .map(|i| i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certs::{ScanRecord, TlsCert};
    use crate::hypergiants::by_name;
    use lacnet_types::country;

    fn cert(cn: &str) -> TlsCert {
        TlsCert {
            subject_cn: cn.into(),
            dns_names: vec![],
        }
    }

    fn scan_2019() -> CertScan {
        let mut scan = CertScan::new(MonthStamp::new(2019, 1));
        // Google cache inside CANTV (off-net).
        scan.push(ScanRecord {
            asn: Asn(8048),
            country: country::VE,
            cert: cert("cache.google.com"),
        });
        // Google serving from its own AS — not an off-net.
        scan.push(ScanRecord {
            asn: Asn(15169),
            country: country::US,
            cert: cert("edge.google.com"),
        });
        // Netflix OCA inside a Brazilian ISP.
        scan.push(ScanRecord {
            asn: Asn(28573),
            country: country::BR,
            cert: cert("oca001.nflxvideo.net"),
        });
        // Unrelated cert inside CANTV.
        scan.push(ScanRecord {
            asn: Asn(8048),
            country: country::VE,
            cert: cert("www.banco.com.ve"),
        });
        scan
    }

    #[test]
    fn detection_excludes_own_networks() {
        let scan = scan_2019();
        let google = detect_offnets(&scan, by_name("Google").unwrap());
        assert_eq!(google.hosts, BTreeSet::from([Asn(8048)]));
        let netflix = detect_offnets(&scan, by_name("Netflix").unwrap());
        assert_eq!(netflix.hosts, BTreeSet::from([Asn(28573)]));
        let akamai = detect_offnets(&scan, by_name("Akamai").unwrap());
        assert!(akamai.hosts.is_empty());
    }

    #[test]
    fn detection_reads_dns_names_too() {
        let mut scan = CertScan::new(MonthStamp::new(2020, 1));
        scan.push(ScanRecord {
            asn: Asn(21826),
            country: country::VE,
            cert: TlsCert {
                subject_cn: "edge.example".into(),
                dns_names: vec!["static.akamaihd.net".into()],
            },
        });
        let akamai = detect_offnets(&scan, by_name("Akamai").unwrap());
        assert_eq!(akamai.hosts, BTreeSet::from([Asn(21826)]));
    }

    fn pops() -> PopulationEstimates {
        let mut p = PopulationEstimates::new();
        p.set(country::VE, Asn(8048), 4_000_000);
        p.set(country::VE, Asn(21826), 2_000_000);
        p.set(country::VE, Asn(6306), 2_000_000);
        p.set(country::BR, Asn(28573), 40_000_000);
        p.set(country::BR, Asn(26599), 60_000_000);
        p
    }

    #[test]
    fn coverage_percentages() {
        let scan = scan_2019();
        let map = AsOrgMap::new();
        let p = pops();
        let google = detect_offnets(&scan, by_name("Google").unwrap());
        let ve = population_coverage(&google, country::VE, &p, &map);
        assert!((ve - 50.0).abs() < 1e-9, "{ve}");
        let br = population_coverage(&google, country::BR, &p, &map);
        assert_eq!(br, 0.0);
        let netflix = detect_offnets(&scan, by_name("Netflix").unwrap());
        let br = population_coverage(&netflix, country::BR, &p, &map);
        assert!((br - 40.0).abs() < 1e-9, "{br}");
    }

    #[test]
    fn series_and_rankings() {
        let scans = vec![scan_2019()];
        let p = pops();
        let map = AsOrgMap::new();
        let google = by_name("Google").unwrap();
        let series = coverage_series(&scans, google, country::VE, &p, &map);
        assert_eq!(series.len(), 1);
        let ranking = mean_coverage_ranking(&scans, google, &[country::VE, country::BR], &p, &map);
        assert_eq!(ranking[0].0, country::VE);
        assert_eq!(rank_of(&ranking, country::BR), Some(2));
        assert_eq!(rank_of(&ranking, country::CL), None);
    }

    #[test]
    fn one_detection_per_scan_matches_per_country_detection() {
        let mut scan_2020 = scan_2019();
        scan_2020.month = MonthStamp::new(2020, 1);
        scan_2020.push(ScanRecord {
            asn: Asn(26599),
            country: country::BR,
            cert: cert("cache.google.com"),
        });
        let scans = vec![scan_2019(), scan_2020];
        let p = pops();
        let mut map = AsOrgMap::new();
        map.add_org(1, "Estado");
        map.assign(Asn(8048), 1);
        map.assign(Asn(6306), 1);
        let countries = [country::VE, country::BR, country::CL];
        for hg in crate::HYPERGIANTS {
            // The composition every country used to run on its own.
            let reference: Vec<TimeSeries> = countries
                .iter()
                .map(|&cc| {
                    scans
                        .iter()
                        .map(|scan| {
                            let hosts = detect_offnets(scan, hg);
                            (scan.month, population_coverage(&hosts, cc, &p, &map))
                        })
                        .collect()
                })
                .collect();
            assert_eq!(
                coverage_by_country(&scans, hg, &countries, &p, &map),
                reference,
                "{}",
                hg.name
            );
            for (&cc, series) in countries.iter().zip(&reference) {
                assert_eq!(&coverage_series(&scans, hg, cc, &p, &map), series);
            }
            // The ranking orders countries by mean coverage, ties by code.
            let mut expected: Vec<(CountryCode, f64)> = countries
                .iter()
                .zip(&reference)
                .map(|(&cc, s)| (cc, s.mean().unwrap_or(0.0)))
                .collect();
            expected.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            assert_eq!(
                mean_coverage_ranking(&scans, hg, &countries, &p, &map),
                expected
            );
        }
        let google = by_name("Google").unwrap();
        let ranking = mean_coverage_ranking(&scans, google, &countries, &p, &map);
        let order: Vec<CountryCode> = ranking.iter().map(|&(cc, _)| cc).collect();
        assert_eq!(order, vec![country::VE, country::BR, country::CL]);
    }

    #[test]
    fn org_aggregation_widens_coverage() {
        let scan = scan_2019();
        let p = pops();
        let mut map = AsOrgMap::new();
        map.add_org(1, "Estado");
        map.assign(Asn(8048), 1);
        map.assign(Asn(6306), 1); // pretend sibling
        let google = detect_offnets(&scan, by_name("Google").unwrap());
        let ve = population_coverage(&google, country::VE, &p, &map);
        assert!((ve - 75.0).abs() < 1e-9, "org-level credit: {ve}");
    }
}
