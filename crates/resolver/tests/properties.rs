//! Property tests over the calibrated population generator: at any
//! scale, the generated hosts must stay faithful to the paper's cells.

use std::collections::{HashMap, HashSet};

use orscope_check::{cases, Rng};
use orscope_resolver::paper::{AnswerClass, Year, YearSpec};
use orscope_resolver::population::{Population, PopulationConfig};
use orscope_resolver::scaling::{apportion, scale_counts};
use orscope_resolver::{AnswerData, ResponseAction, COUNTRY_NONE};

fn year(rng: &mut Rng) -> Year {
    *rng.choice(&[Year::Y2013, Year::Y2018])
}

/// A seeded config at a scale drawn from `low..high`.
fn config(rng: &mut Rng, low: f64, high: f64) -> PopulationConfig {
    let mut config = PopulationConfig::new(year(rng), rng.f64(low, high));
    config.seed = rng.next_u64();
    config
}

/// A seeded population with forwarders and off-port responders, so all
/// three host lists are in use.
fn mixed_population(rng: &mut Rng) -> Population {
    let mut config = config(rng, 20_000.0, 60_000.0);
    config.forwarder_fraction = rng.f64(0.0, 0.5);
    config.off_port_responders = 3;
    Population::generate(&config)
}

/// The population total equals round(R2 / scale) at any scale.
#[test]
fn totals_track_scale() {
    cases(16, |rng| {
        let config = config(rng, 1_000.0, 50_000.0);
        let population = Population::generate(&config);
        let expected = (YearSpec::get(config.year).r2 as f64 / config.scale).round() as u64;
        assert_eq!(population.resolvers.len() as u64, expected);
    });
}

/// Class marginals survive scaling within per-cell rounding: the
/// recursing (correct-answer) share matches Table III.
#[test]
fn recursing_share_matches_table_3() {
    cases(16, |rng| {
        let (year, scale) = (year(rng), rng.f64(1_000.0, 20_000.0));
        let population = Population::generate(&PopulationConfig::new(year, scale));
        let spec = YearSpec::get(year);
        let expected = spec.answer_class_total(AnswerClass::Correct) as f64 / scale;
        let recursing = population
            .resolvers()
            .filter(|r| r.policy.recurses())
            .count() as f64;
        // Largest-remainder rounding across ~7 correct cells: off by at
        // most the cell count.
        assert!(
            (recursing - expected).abs() <= 8.0,
            "{recursing} vs {expected}"
        );
    });
}

/// Malicious resolvers always carry a category, a country, and a
/// fixed IP answer; nothing else carries a category.
#[test]
fn malicious_invariants() {
    cases(16, |rng| {
        let config = config(rng, 1_000.0, 20_000.0);
        let population = Population::generate(&config);
        for resolver in population.resolvers() {
            match resolver.policy.malicious_category {
                Some(_) => {
                    assert!(resolver.country.is_some());
                    let ResponseAction::Immediate(imm) = &resolver.policy.action else {
                        panic!("malicious must be immediate");
                    };
                    assert!(matches!(imm.answer, Some(AnswerData::FixedIp(_))));
                    assert_eq!(imm.rcode, orscope_dns_wire::Rcode::NoError);
                }
                None => assert!(resolver.country.is_none()),
            }
        }
        // Malicious count tracks Table IX within rounding.
        let malicious = population
            .resolvers()
            .filter(|r| r.policy.malicious_category.is_some())
            .count() as f64;
        let expected = YearSpec::get(config.year).malicious_r2() as f64 / config.scale;
        assert!(
            (malicious - expected).abs() <= 4.0,
            "{malicious} vs {expected}"
        );
    });
}

/// scale_counts is consistent with apportion at the same target.
#[test]
fn scale_counts_matches_apportion() {
    cases(16, |rng| {
        let counts = rng.vec(1..20, |rng| rng.range(0u64..1_000_000));
        let scale = rng.f64(1.0, 10_000.0);
        let total: u64 = counts.iter().sum();
        let target = (total as f64 / scale).round() as u64;
        assert_eq!(scale_counts(&counts, scale), apportion(&counts, target));
    });
}

/// Apportionment satisfies quota: every cell gets floor or ceil of
/// its exact share.
#[test]
fn apportion_satisfies_quota() {
    cases(16, |rng| {
        // One case in four has nothing to share out.
        let most = if rng.range(0..4) == 0 { 1 } else { 1_000_000 };
        let counts = rng.vec(1..20, |rng| rng.range(0u64..most));
        let target = rng.range(0u64..100_000);
        let out = apportion(&counts, target);
        let total: u64 = counts.iter().sum();
        if total == 0 {
            assert!(out.iter().all(|&v| v == 0));
        } else {
            assert_eq!(out.iter().sum::<u64>(), target);
            for (&c, &got) in counts.iter().zip(&out) {
                let share = c as f64 * target as f64 / total as f64;
                assert!(got as f64 >= share.floor(), "{got} < floor({share})");
                assert!(got as f64 <= share.ceil(), "{got} > ceil({share})");
            }
        }
    });
}

/// Population generation is a pure function of its config.
#[test]
fn generation_is_deterministic() {
    cases(16, |rng| {
        let mut config = PopulationConfig::new(year(rng), 20_000.0);
        config.seed = rng.next_u64();
        let a = Population::generate(&config);
        let b = Population::generate(&config);
        assert_eq!(a.resolvers, b.resolvers);
        assert_eq!(a.malicious_answers, b.malicious_answers);
        // Identical host lists can only compare equal if the two runs
        // also interned profiles in the same order.
        assert_eq!(a.table().len(), b.table().len());
    });
}

/// Every in-use policy round-trips through the interned table:
/// `lookup` finds it, and its id resolves back to an equal policy.
/// Country ids round-trip the same way: `None` is [`COUNTRY_NONE`] and
/// nothing else is, and a label is never interned under two ids.
#[test]
fn profile_ids_round_trip() {
    cases(16, |rng| {
        let population = mixed_population(rng);
        let table = population.table();
        for host in population
            .resolvers()
            .chain(population.off_port())
            .chain(population.upstreams())
        {
            let id = table.lookup(host.policy).expect("in-use policy interned");
            assert_eq!(&**table.get(id), &**host.policy);
        }
        let mut id_of = HashMap::new();
        for i in 0..population.resolvers.len() {
            let id = population.resolvers.country_id(i);
            let label = table.country(id);
            assert_eq!(label.is_none(), id == COUNTRY_NONE);
            if let Some(label) = label {
                assert_eq!(*id_of.entry(label).or_insert(id), id, "{label}");
            }
        }
    });
}

/// The table is exactly the set of distinct in-use policies: no two
/// distinct policies share an id (ids resolve injectively) and no
/// orphaned entries survive generation — `table.len()` equals the
/// number of unique policies across all three host lists.
#[test]
fn profile_table_is_exactly_the_unique_policies() {
    cases(16, |rng| {
        let population = mixed_population(rng);
        let table = population.table();
        let mut ids = HashSet::new();
        let mut unique_policies = HashSet::new();
        for host in population
            .resolvers()
            .chain(population.off_port())
            .chain(population.upstreams())
        {
            let id = table.lookup(host.policy).expect("in-use policy interned");
            ids.insert(id);
            unique_policies.insert((**host.policy).clone());
        }
        // Distinct policies got distinct ids...
        assert_eq!(ids.len(), unique_policies.len());
        // ...and the table holds nothing beyond them.
        assert_eq!(table.len(), unique_policies.len());
    });
}
