//! The two-tier zone cluster of Fig. 3.
//!
//! The paper's authoritative server could reliably hold about five
//! million zone entries at once, so the 3.7-billion-target probe space is
//! cut into numbered clusters of five million subdomains each; when a
//! cluster is exhausted the server loads the next one (about one minute
//! of load time per cluster). Subdomain reuse reduced the real scan from
//! a theoretical 800 clusters to 4.
//!
//! [`ClusterZone`] reproduces those semantics without materializing five
//! million `Record`s: membership of `or{ccc}.{sssssss}` in the active
//! cluster is decided from the parsed label, and the A answer is the
//! deterministic [`ground_truth`] address the zone files would contain.

use std::time::Duration;

use orscope_dns_wire::{Name, RData, Record, RecordType};

use crate::scheme::{ground_truth, ProbeLabel, CLUSTER_CAPACITY};
use crate::zone::{Zone, ZoneAnswer};

/// Time the paper reports for loading one five-million-entry cluster.
pub const CLUSTER_LOAD_TIME: Duration = Duration::from_secs(60);

/// A [`Zone`] wrapper that additionally serves the active probe cluster.
#[derive(Debug, Clone)]
pub struct ClusterZone {
    /// Static zone content (apex SOA/NS/TXT, ns1 glue, ...).
    zone: Zone,
    /// The currently loaded cluster, if any.
    active_cluster: Option<u32>,
    /// How many subdomains of the active cluster are actually loaded
    /// (the final cluster of a scan may be partial).
    loaded: u64,
    /// The previously active cluster, kept serving while in-flight
    /// resolutions for it drain (zones overlap during a reload).
    previous: Option<(u32, u64)>,
    /// TTL served for probe subdomains.
    probe_ttl: u32,
}

impl ClusterZone {
    /// Wraps `zone`, initially with no cluster loaded.
    pub fn new(zone: Zone) -> Self {
        Self {
            zone,
            active_cluster: None,
            loaded: 0,
            previous: None,
            probe_ttl: 60,
        }
    }

    /// The static zone content.
    pub fn zone(&self) -> &Zone {
        &self.zone
    }

    /// The active cluster number, if one is loaded.
    pub(crate) fn active_cluster(&self) -> Option<u32> {
        self.active_cluster
    }

    /// Loads cluster `cluster` with `count` subdomains (capped at
    /// [`CLUSTER_CAPACITY`]), replacing the previous cluster.
    pub fn load_cluster(&mut self, cluster: u32, count: u64) {
        self.previous = self.active_cluster.map(|c| (c, self.loaded));
        self.active_cluster = Some(cluster);
        self.loaded = count.min(CLUSTER_CAPACITY);
    }

    /// Looks up a name: probe subdomains of the active cluster answer
    /// with their ground-truth address; everything else defers to the
    /// static zone (which yields NXDomain for unloaded probe names,
    /// exactly as a real zone file would).
    ///
    /// `label` is the caller's reading of `qname` —
    /// `ProbeLabel::parse(qname, self.zone().origin())` — which the
    /// server has already made for its capture records.
    pub fn lookup(
        &self,
        qname: &Name,
        label: Option<ProbeLabel>,
        qtype: RecordType,
    ) -> ClusterAnswer {
        debug_assert_eq!(label, ProbeLabel::parse(qname, self.zone.origin()));
        let Some(label) = label else {
            return ClusterAnswer::Zone(self.zone.lookup(qname, qtype));
        };
        let in_active = Some(label.cluster) == self.active_cluster && label.seq < self.loaded;
        let in_previous = self
            .previous
            .is_some_and(|(c, n)| c == label.cluster && label.seq < n);
        if !(in_active || in_previous) {
            // A probe name outside the loaded cluster does not exist.
            return ClusterAnswer::Zone(ZoneAnswer::NxDomain(self.zone.soa().clone()));
        }
        if !matches!(qtype, RecordType::A | RecordType::Any) {
            return ClusterAnswer::Zone(ZoneAnswer::NoData(self.zone.soa().clone()));
        }
        ClusterAnswer::Probe(Record::in_class(
            qname.clone(),
            self.probe_ttl,
            RData::A(ground_truth(label)),
        ))
    }
}

/// The result of a [`ClusterZone`] lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterAnswer {
    /// A probe subdomain of a loaded cluster, asked for its address:
    /// its one ground-truth A record, by value — the answer a scan asks
    /// for once per Q2 goes from here into the response without a
    /// vector in between.
    Probe(Record),
    /// Everything else, in the static zone's terms (NXDomain or NoData
    /// for probe names no loaded cluster answers).
    Zone(ZoneAnswer),
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ClusterZone {
        /// Mutable access to the static zone content.
        fn zone_mut(&mut self) -> &mut Zone {
            &mut self.zone
        }
    }

    fn cluster_zone() -> ClusterZone {
        let zone = Zone::new(
            "ucfsealresearch.net".parse().unwrap(),
            "ns1.ucfsealresearch.net".parse().unwrap(),
        );
        ClusterZone::new(zone)
    }

    fn qname(cluster: u32, seq: u64) -> Name {
        ProbeLabel::new(cluster, seq).qname(&"ucfsealresearch.net".parse().unwrap())
    }

    /// The lookup as the server makes it: label read once, then passed.
    fn lookup(cz: &ClusterZone, qname: &Name, qtype: RecordType) -> ClusterAnswer {
        cz.lookup(qname, ProbeLabel::parse(qname, cz.zone().origin()), qtype)
    }

    #[test]
    fn unloaded_cluster_yields_nxdomain() {
        let cz = cluster_zone();
        assert!(matches!(
            lookup(&cz, &qname(0, 1), RecordType::A),
            ClusterAnswer::Zone(ZoneAnswer::NxDomain(_))
        ));
    }

    #[test]
    fn loaded_cluster_answers_ground_truth() {
        let mut cz = cluster_zone();
        cz.load_cluster(3, 1000);
        match lookup(&cz, &qname(3, 999), RecordType::A) {
            ClusterAnswer::Probe(rec) => {
                assert_eq!(
                    rec.rdata().as_a(),
                    Some(ground_truth(ProbeLabel::new(3, 999)))
                );
                assert_eq!(rec.name(), &qname(3, 999));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sequence_beyond_loaded_count_is_nxdomain() {
        let mut cz = cluster_zone();
        cz.load_cluster(3, 1000);
        assert!(matches!(
            lookup(&cz, &qname(3, 1000), RecordType::A),
            ClusterAnswer::Zone(ZoneAnswer::NxDomain(_))
        ));
    }

    #[test]
    fn other_cluster_is_nxdomain() {
        let mut cz = cluster_zone();
        cz.load_cluster(3, 1000);
        assert!(matches!(
            lookup(&cz, &qname(2, 5), RecordType::A),
            ClusterAnswer::Zone(ZoneAnswer::NxDomain(_))
        ));
    }

    #[test]
    fn rollover_keeps_previous_cluster_until_next_roll() {
        let mut cz = cluster_zone();
        cz.load_cluster(0, 100);
        cz.load_cluster(1, 100);
        assert_eq!(cz.active_cluster(), Some(1));
        // Cluster 0 still drains while cluster 1 is active...
        assert!(matches!(
            lookup(&cz, &qname(0, 5), RecordType::A),
            ClusterAnswer::Probe(_)
        ));
        assert!(matches!(
            lookup(&cz, &qname(1, 5), RecordType::A),
            ClusterAnswer::Probe(_)
        ));
        // ...but is dropped once cluster 2 loads.
        cz.load_cluster(2, 100);
        assert!(matches!(
            lookup(&cz, &qname(0, 5), RecordType::A),
            ClusterAnswer::Zone(ZoneAnswer::NxDomain(_))
        ));
        assert!(matches!(
            lookup(&cz, &qname(1, 5), RecordType::A),
            ClusterAnswer::Probe(_)
        ));
    }

    #[test]
    fn mx_on_probe_name_is_nodata() {
        let mut cz = cluster_zone();
        cz.load_cluster(0, 10);
        assert!(matches!(
            lookup(&cz, &qname(0, 5), RecordType::Mx),
            ClusterAnswer::Zone(ZoneAnswer::NoData(_))
        ));
    }

    #[test]
    fn static_zone_still_served() {
        let mut cz = cluster_zone();
        cz.zone_mut().add_a(
            "ns1.ucfsealresearch.net".parse().unwrap(),
            "45.77.1.1".parse().unwrap(),
        );
        cz.load_cluster(0, 10);
        assert!(matches!(
            lookup(
                &cz,
                &"ns1.ucfsealresearch.net".parse().unwrap(),
                RecordType::A
            ),
            ClusterAnswer::Zone(ZoneAnswer::Answer(_))
        ));
    }
}
