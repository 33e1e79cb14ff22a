//! The fixed measurement infrastructure: addresses and database seeding.

use std::net::Ipv4Addr;

use orscope_dns_wire::Name;
use orscope_lookup::geo::{GeoDb, GeoRecord};
use orscope_lookup::threatintel::{Category, Report, ReportSource, ThreatDb};
use orscope_resolver::population::Population;

/// Well-known addresses of the measurement infrastructure.
///
/// These mirror the paper's setup: a root server, the `.net` TLD server,
/// the authoritative server on a cloud host, and the campus prober.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Infra {
    /// The root name server (a.root-servers.net).
    pub root: Ipv4Addr,
    /// The `.net` TLD server (a.gtld-servers.net).
    pub tld: Ipv4Addr,
    /// The authoritative server for the measurement zone.
    pub auth: Ipv4Addr,
    /// The prober.
    pub prober: Ipv4Addr,
    /// The measurement zone.
    pub zone: Name,
    /// The zone's name-server name.
    pub auth_ns_name: Name,
}

impl Default for Infra {
    fn default() -> Self {
        Self {
            root: Ipv4Addr::new(198, 41, 0, 4),
            tld: Ipv4Addr::new(192, 5, 6, 30),
            // A cloud-hosting address outside the ground-truth range.
            auth: Ipv4Addr::new(104, 238, 191, 60),
            // The campus network the probes originate from.
            prober: Ipv4Addr::new(132, 170, 5, 53),
            zone: "ucfsealresearch.net".parse().expect("static name"),
            auth_ns_name: "ns1.ucfsealresearch.net".parse().expect("static name"),
        }
    }
}

impl Infra {
    /// All infrastructure addresses (for population exclusion).
    pub fn addresses(&self) -> Vec<Ipv4Addr> {
        vec![self.root, self.tld, self.auth, self.prober]
    }
}

/// Builds the threat-intelligence database for a generated population:
/// every malicious answer address gets reports under its category
/// (multiple categories for the headline addresses, mirroring Fig. 4's
/// multi-category Cymon card for 208.91.197.91).
pub(crate) fn seed_threat_db(population: &Population) -> ThreatDb {
    let mut db = ThreatDb::new();
    for answer in &population.malicious_answers {
        // Dominant category: several reports.
        db.seed(answer.ip, answer.category, 3);
        // The Fig. 4 address carries extra categories and a ransomware-
        // tracker report; give every malware IP one secondary report so
        // dominant-category selection is actually exercised.
        if answer.category == Category::Malware {
            db.add_report(
                answer.ip,
                Report::new(Category::Phishing).with_source(ReportSource::Honeypot),
            );
            db.add_report(
                answer.ip,
                Report::new(Category::Botnet).with_source(ReportSource::RansomwareTracker),
            );
        }
    }
    db
}

/// Builds the geolocation database: org names for the Table VIII answer
/// addresses, country entries for every malicious resolver, and a
/// default US record for everything else (the long benign tail the
/// paper does not geolocate).
pub(crate) fn seed_geo_db(population: &Population) -> GeoDb {
    let mut db = GeoDb::new();
    for &(ip, org) in &population.answer_orgs {
        if org == "private network" {
            continue; // intrinsic private-range handling answers these
        }
        db.insert_exact(
            ip,
            GeoRecord::new(country_of_org(org), asn_of_org(org), org),
        );
    }
    for resolver in population.resolvers() {
        if let Some(country) = resolver.country {
            db.insert_exact(
                resolver.addr,
                GeoRecord::new(country, 64_512, "open resolver operator"),
            );
        }
    }
    db.finalize();
    db
}

/// Country attribution for the named Table VIII organizations.
fn country_of_org(org: &str) -> &'static str {
    match org {
        "Tera-byte Dot Com" => "CA",
        "Unified Layer" => "US",
        "Confluence Network Inc" => "VG",
        "Rook Media GmbH" => "CH",
        "Chunghwa Telecom" => "TW",
        "Microsoft Corporation" => "US",
        "China Unicom" | "China Telecom" => "CN",
        "SoftLayer Technologies" | "Comcast Cable" => "US",
        _ => "US",
    }
}

/// Stable fake ASNs for the named organizations.
fn asn_of_org(org: &str) -> u32 {
    match org {
        "Tera-byte Dot Com" => 10_929,
        "Unified Layer" => 46_606,
        "Confluence Network Inc" => 40_034,
        "Rook Media GmbH" => 49_693,
        "Chunghwa Telecom" => 3_462,
        "Microsoft Corporation" => 8_075,
        "China Unicom" => 4_837,
        "China Telecom" => 4_134,
        "SoftLayer Technologies" => 36_351,
        "Comcast Cable" => 7_922,
        _ => 64_496,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orscope_resolver::paper::Year;
    use orscope_resolver::population::PopulationConfig;

    #[test]
    fn infra_addresses_are_distinct_and_public() {
        let infra = Infra::default();
        let addrs = infra.addresses();
        let unique: std::collections::HashSet<_> = addrs.iter().collect();
        assert_eq!(unique.len(), addrs.len());
        for addr in addrs {
            assert!(!orscope_ipspace::reserved::is_reserved(u32::from(addr)));
        }
        assert!(!orscope_authns::scheme::in_ground_truth_range(infra.auth));
    }

    #[test]
    fn threat_db_reports_every_malicious_answer() {
        let pop = Population::generate(&PopulationConfig::new(Year::Y2018, 500.0));
        let db = seed_threat_db(&pop);
        for answer in &pop.malicious_answers {
            assert!(db.is_reported(answer.ip));
            assert_eq!(
                db.dominant_category(answer.ip),
                Some(answer.category),
                "dominant category survives secondary reports for {}",
                answer.ip
            );
        }
    }

    #[test]
    fn geo_db_covers_malicious_resolvers() {
        let pop = Population::generate(&PopulationConfig::new(Year::Y2018, 500.0));
        let db = seed_geo_db(&pop);
        for resolver in pop.resolvers() {
            if let Some(country) = resolver.country {
                assert_eq!(db.lookup(resolver.addr).country, country);
            }
        }
    }

    #[test]
    fn geo_db_has_table_8_orgs() {
        let pop = Population::generate(&PopulationConfig::new(Year::Y2018, 1000.0));
        let db = seed_geo_db(&pop);
        assert_eq!(
            db.lookup(Ipv4Addr::new(216, 194, 64, 193)).org,
            "Tera-byte Dot Com"
        );
        assert_eq!(
            db.lookup(Ipv4Addr::new(208, 91, 197, 91)).org,
            "Confluence Network Inc"
        );
        assert!(db.lookup(Ipv4Addr::new(192, 168, 1, 1)).is_private());
    }
}
