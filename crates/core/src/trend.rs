//! Continuous monitoring of the open-resolver ecosystem.
//!
//! The paper's discussion (§V) argues that one-shot scans are not
//! enough: the open-resolver count fell between 2013 and 2018 while the
//! *malicious* population grew, and no operational project tracked the
//! transition (openresolverproject.org shut down in 2017). This module
//! provides the tool the paper calls for: a scan series over populations
//! interpolated between the two calibrated endpoints, so the crossing
//! trends are visible as a time series rather than two snapshots.
//!
//! Interpolation at mix `alpha` samples `(1 - alpha)` of the 2013
//! population and `alpha` of the 2018 population (cell-wise, via each
//! year's largest-remainder scaling), which linearly interpolates every
//! behavioural cell count.

use orscope_resolver::paper::Year;
use orscope_resolver::population::{Population, PopulationConfig};

use crate::campaign::{Campaign, CampaignConfig};
use crate::error::CampaignError;

/// One point of the monitoring series.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// Mix parameter: 0.0 = pure 2013, 1.0 = pure 2018.
    pub alpha: f64,
    /// Nominal calendar label (linear between the scan dates).
    pub year_label: f64,
    /// Responders observed (R2).
    pub r2: u64,
    /// Responses carrying answers.
    pub with_answer: u64,
    /// Correct answers.
    pub correct: u64,
    /// Incorrect answers.
    pub incorrect: u64,
    /// Err% (Table III definition).
    pub err_pct: f64,
    /// Threat-reported (malicious) responses.
    pub malicious: u64,
}

/// Configuration of a monitoring run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendConfig {
    /// Number of points including both endpoints (>= 2).
    pub steps: usize,
    /// Population scale for each point.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
}

impl TrendConfig {
    /// The mix of step `step` of the series.
    fn alpha(&self, step: usize) -> f64 {
        step as f64 / (self.steps - 1) as f64
    }

    /// The campaign that scans the population of mix `alpha`: the scan
    /// machinery (rates, zone) follows the nearer endpoint.
    fn campaign_config(&self, alpha: f64) -> CampaignConfig {
        let year = if alpha < 0.5 {
            Year::Y2013
        } else {
            Year::Y2018
        };
        CampaignConfig::new(year, self.scale).with_seed(self.seed)
    }

    /// Checks that every step of the series can scan.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidConfig`] for fewer than two steps,
    /// for a step whose campaign [`CampaignConfig::validate`] refuses,
    /// and for a step whose interpolated population has no responder.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if self.steps < 2 {
            return Err(CampaignError::InvalidConfig(format!(
                "a trend needs both endpoints (got {} step(s))",
                self.steps
            )));
        }
        for step in 0..self.steps {
            let alpha = self.alpha(step);
            self.campaign_config(alpha).validate()?;
            let planned: u64 = samples(alpha, self.scale)
                .map(|(year, scale, _)| Population::planned_resolvers(year, scale))
                .sum();
            if planned == 0 {
                return Err(CampaignError::InvalidConfig(format!(
                    "scale {} leaves step {step} of the trend no responder",
                    self.scale
                )));
            }
        }
        Ok(())
    }
}

/// The endpoint samples the population of mix `alpha` merges: each
/// year with a weight, at the scale that weight gives, and its seed salt.
fn samples(alpha: f64, scale: f64) -> impl Iterator<Item = (Year, f64, u64)> {
    let alpha = alpha.clamp(0.0, 1.0);
    [(Year::Y2013, 1.0 - alpha, 0u64), (Year::Y2018, alpha, 1)]
        .into_iter()
        .filter(|&(_, weight, _)| weight >= 1e-9)
        .map(move |(year, weight, salt)| (year, scale / weight, salt))
}

impl Default for TrendConfig {
    fn default() -> Self {
        Self {
            steps: 6, // one per year, 2013..=2018
            scale: 2_000.0,
            seed: 0x7E3D,
        }
    }
}

/// Builds the population for mix `alpha` by sampling both endpoint
/// populations at proportionally reduced scales and merging them.
///
/// Address collisions between the two samples are impossible: the 2013
/// sample reserves every infrastructure address and the 2018 sample
/// additionally reserves all 2013 addresses.
pub(crate) fn interpolated_population(
    alpha: f64,
    scale: f64,
    seed: u64,
    reserved: Vec<std::net::Ipv4Addr>,
) -> Population {
    let mut merged: Option<Population> = None;
    for (year, scale, salt) in samples(alpha, scale) {
        let mut config = PopulationConfig::new(year, scale);
        config.seed = seed ^ (salt << 32) ^ salt;
        config.reserved_hosts = reserved.clone();
        let mut part = Population::generate(&config);
        match &mut merged {
            None => {
                // Reserve this sample's addresses for the next one.
                merged = Some(part);
            }
            Some(base) => {
                let taken: std::collections::HashSet<_> = base.resolvers.addrs().collect();
                base.merge(&part, |addr| !taken.contains(&addr));
                base.malicious_answers.append(&mut part.malicious_answers);
                // Answer-org seeds may repeat across years; dedup by IP.
                base.answer_orgs.extend(part.answer_orgs);
                base.answer_orgs.sort_by_key(|&(ip, _)| ip);
                base.answer_orgs.dedup_by_key(|&mut (ip, _)| ip);
            }
        }
    }
    merged.expect("at least one endpoint sampled")
}

/// Runs the scan series and returns one [`TrendPoint`] per step.
///
/// # Panics
///
/// Panics if [`TrendConfig::validate`] refuses `config`.
pub fn run_trend(config: &TrendConfig) -> Vec<TrendPoint> {
    if let Err(err) = config.validate() {
        panic!("{err}");
    }
    let mut points = Vec::with_capacity(config.steps);
    for step in 0..config.steps {
        let alpha = config.alpha(step);
        let campaign_config = config.campaign_config(alpha);
        let population = interpolated_population(
            alpha,
            config.scale,
            config.seed,
            campaign_config.infra.addresses(),
        );
        let result = Campaign::new(campaign_config)
            .run_with_population(population)
            .expect("trend configurations are well-formed");
        let t3 = result.table3_measured().0;
        points.push(TrendPoint {
            alpha,
            year_label: 2013.0 + alpha * 5.0,
            r2: result.dataset().r2(),
            with_answer: t3.w(),
            correct: t3.w_corr,
            incorrect: t3.w_incorr,
            err_pct: t3.err_pct(),
            malicious: result.table9_measured().total_r2(),
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_trend_that_cannot_scan_is_refused() {
        let trend = |steps, scale| TrendConfig {
            steps,
            scale,
            seed: 7,
        };
        for (config, reason) in [
            (trend(1, 2_000.0), "both endpoints"),
            (trend(6, f64::NAN), "at least 1"),
            (trend(6, 0.5), "at least 1"),
            (trend(6, 1e9), "no responder"),
            // Both endpoints keep a responder at 1.3e7, but the 0.8 mix
            // samples 2013 at 6.5e7 and 2018 at 1.625e7: none of either.
            (trend(6, 1.3e7), "step 4 of the trend"),
        ] {
            let err = config.validate().unwrap_err().to_string();
            assert!(err.contains(reason), "{config:?}: {err}");
        }
        for alpha in [0.0, 1.0] {
            let config = trend(6, 1.3e7).campaign_config(alpha);
            assert!(config.validate().is_ok(), "{alpha}");
        }
        assert!(trend(6, 2_000.0).validate().is_ok());
    }

    #[test]
    fn endpoints_match_pure_years() {
        let config = TrendConfig {
            steps: 2,
            scale: 5_000.0,
            seed: 7,
        };
        let points = run_trend(&config);
        assert_eq!(points.len(), 2);
        let (p13, p18) = (&points[0], &points[1]);
        // 2013 endpoint: ~16.66M / 5000 responders; 2018: ~6.5M / 5000.
        assert!((p13.r2 as f64 - 3_332.0).abs() < 5.0, "{}", p13.r2);
        assert!((p18.r2 as f64 - 1_301.0).abs() < 5.0, "{}", p18.r2);
        assert!(p13.err_pct < 1.5);
        assert!(p18.err_pct > 3.0);
    }

    #[test]
    fn midpoint_interpolates_counts() {
        let population = interpolated_population(0.5, 5_000.0, 3, Vec::new());
        // (16,660,123 + 6,506,258) / 2 / 5000 ~= 2,317.
        let expected = (16_660_123.0_f64 / 2.0 + 6_506_258.0 / 2.0) / 5_000.0;
        assert!(
            (population.resolvers.len() as f64 - expected).abs() < 10.0,
            "{} vs {expected}",
            population.resolvers.len()
        );
        // No duplicate addresses survived the merge.
        let unique: std::collections::HashSet<_> = population.resolvers.addrs().collect();
        assert_eq!(unique.len(), population.resolvers.len());
    }

    #[test]
    fn trend_shows_crossing_lines() {
        let points = run_trend(&TrendConfig {
            steps: 3,
            scale: 4_000.0,
            seed: 11,
        });
        // R2 falls monotonically...
        assert!(points[0].r2 > points[1].r2);
        assert!(points[1].r2 > points[2].r2);
        // ...while the error rate rises...
        assert!(points[2].err_pct > points[0].err_pct);
        // ...and malicious volume grows despite the shrink.
        assert!(points[2].malicious > points[0].malicious);
    }
}
