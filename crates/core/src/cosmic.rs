//! Section IX: external factors — cosmic radiation.
//!
//! Bins node outages by calendar month, pairs each month's failure
//! probability with the month's average neutron counts-per-minute, and
//! asks whether higher-flux months see more DRAM or CPU failures.
//! The paper finds DRAM flat (outages are hard errors the ECC can't
//! hide) and CPU slightly positive.

use hpcfail_stats::corr::{pearson, spearman};
use hpcfail_store::columns::ClassCode;
use hpcfail_store::trace::Trace;
use hpcfail_types::prelude::*;
use std::ops::Range;

/// One month of one system: average flux and failure probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonthlyFluxPoint {
    /// 30-day month index since the trace epoch.
    pub month: i64,
    /// Average neutron counts per minute that month.
    pub counts_per_minute: f64,
    /// Fraction of the system's nodes with at least one matching
    /// failure that month.
    pub probability: f64,
}

/// The Section IX cosmic-ray analysis.
#[derive(Debug, Clone, Copy)]
pub struct CosmicAnalysis<'a> {
    trace: &'a Trace,
}

impl<'a> CosmicAnalysis<'a> {
    /// Engine-internal constructor: the public entry point is
    /// [`crate::engine::Engine::cosmic`].
    pub(crate) fn over(trace: &'a Trace) -> Self {
        CosmicAnalysis { trace }
    }

    /// `(month, average counts per minute)` for every month in `months`
    /// that has samples, in month order. The samples are sorted by
    /// time, so each month's are adjacent, and they sum in sample
    /// order.
    fn flux_over(&self, months: Range<i64>) -> impl Iterator<Item = (i64, f64)> + '_ {
        let samples = self.trace.neutron_samples();
        let from = samples.partition_point(|s| s.time.month_index() < months.start);
        let to = samples.partition_point(|s| s.time.month_index() < months.end);
        let to = to.max(from);
        samples[from..to]
            .chunk_by(|a, b| a.time.month_index() == b.time.month_index())
            .map(|run| {
                let sum = run.iter().fold(0.0, |sum, s| sum + s.counts_per_minute);
                (run[0].time.month_index(), sum / run.len() as f64)
            })
    }

    /// The Figure 14 series for one system and failure class: for
    /// every fully observed month, `(flux, P(node has >=1 failure))`.
    pub fn monthly_series(&self, system: SystemId, class: FailureClass) -> Vec<MonthlyFluxPoint> {
        let Some(s) = self.trace.system(system) else {
            return Vec::new();
        };
        let nodes = s.config().nodes as f64;
        if nodes == 0.0 {
            return Vec::new();
        }
        let first_month = s.config().start.month_index();
        let last_month = s.config().end.month_index(); // exclusive if partial
        let months = first_month..last_month;
        // Each (month, node) with >=1 matching failure, once, in order.
        let mut failing: Vec<(i64, NodeId)> = s
            .failure_columns()
            .events(ClassCode::new(class))
            .map(|(time, node)| (time.month_index(), node))
            .filter(|(month, _)| months.contains(month))
            .collect();
        failing.sort_unstable();
        failing.dedup();
        let mut failing = failing.chunk_by(|a, b| a.0 == b.0).peekable();
        self.flux_over(months)
            .map(|(month, counts)| {
                while failing.next_if(|run| run[0].0 < month).is_some() {}
                let k = failing
                    .next_if(|run| run[0].0 == month)
                    .map_or(0, <[_]>::len);
                MonthlyFluxPoint {
                    month,
                    counts_per_minute: counts,
                    probability: k as f64 / nodes,
                }
            })
            .collect()
    }

    /// Pearson correlation between monthly flux and failure
    /// probability; `None` when degenerate.
    pub fn flux_correlation(&self, system: SystemId, class: FailureClass) -> Option<f64> {
        series_correlations(&self.monthly_series(system, class)).0
    }

    /// Spearman rank correlation (robust variant).
    pub fn flux_rank_correlation(&self, system: SystemId, class: FailureClass) -> Option<f64> {
        series_correlations(&self.monthly_series(system, class)).1
    }

    /// The Figure 14 rendering aid: months grouped into `bins` equal-
    /// width flux bins, each yielding `(mean flux, mean probability)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn binned_series(
        &self,
        system: SystemId,
        class: FailureClass,
        bins: usize,
    ) -> Vec<(f64, f64)> {
        assert!(bins > 0, "need at least one bin");
        let series = self.monthly_series(system, class);
        if series.is_empty() {
            return Vec::new();
        }
        let min = series
            .iter()
            .map(|p| p.counts_per_minute)
            .fold(f64::INFINITY, f64::min);
        let max = series
            .iter()
            .map(|p| p.counts_per_minute)
            .fold(f64::NEG_INFINITY, f64::max);
        let width = ((max - min) / bins as f64).max(1e-9);
        let mut acc = vec![(0.0f64, 0.0f64, 0u64); bins];
        for p in &series {
            let b = (((p.counts_per_minute - min) / width) as usize).min(bins - 1);
            acc[b].0 += p.counts_per_minute;
            acc[b].1 += p.probability;
            acc[b].2 += 1;
        }
        acc.into_iter()
            .filter(|&(_, _, n)| n > 0)
            .map(|(fx, pr, n)| (fx / n as f64, pr / n as f64))
            .collect()
    }
}

/// Pearson and Spearman correlations between a series' monthly flux
/// and failure probability; each `None` when degenerate. Callers that
/// want both build the series once with
/// [`CosmicAnalysis::monthly_series`] and pass it here.
pub fn series_correlations(series: &[MonthlyFluxPoint]) -> (Option<f64>, Option<f64>) {
    let xs: Vec<f64> = series.iter().map(|p| p.counts_per_minute).collect();
    let ys: Vec<f64> = series.iter().map(|p| p.probability).collect();
    (pearson(&xs, &ys), spearman(&xs, &ys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_store::trace::SystemTraceBuilder;
    use std::collections::BTreeMap;

    /// 10 nodes, 300 days; flux alternates low/high per month; CPU
    /// failures only in high-flux months, DRAM failures uniform.
    fn build() -> Trace {
        let config = SystemConfig {
            id: SystemId::new(18),
            name: "t".into(),
            nodes: 10,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(300.0),
            has_layout: false,
            has_job_log: false,
            has_temperature: false,
        };
        let mut b = SystemTraceBuilder::new(config);
        let sys = SystemId::new(18);
        for month in 0..10i64 {
            let high = month % 2 == 1;
            let day0 = month as f64 * 30.0;
            if high {
                for k in 0..3u32 {
                    b.push_failure(FailureRecord::new(
                        sys,
                        NodeId::new(k),
                        Timestamp::from_days(day0 + 5.0 + k as f64),
                        RootCause::Hardware,
                        SubCause::Hardware(HardwareComponent::Cpu),
                    ));
                }
            }
            // One DRAM failure every month regardless.
            b.push_failure(FailureRecord::new(
                sys,
                NodeId::new(5),
                Timestamp::from_days(day0 + 10.0),
                RootCause::Hardware,
                SubCause::Hardware(HardwareComponent::MemoryDimm),
            ));
        }
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        let samples: Vec<NeutronSample> = (0..300)
            .map(|d| {
                let month = d / 30;
                let counts = if month % 2 == 1 { 4500.0 } else { 3600.0 };
                NeutronSample {
                    time: Timestamp::from_days(d as f64),
                    counts_per_minute: counts,
                }
            })
            .collect();
        trace.set_neutron_samples(samples);
        trace
    }

    #[test]
    fn monthly_flux_aggregation() {
        let trace = build();
        let a = CosmicAnalysis::over(&trace);
        let flux: BTreeMap<i64, f64> = a.flux_over(i64::MIN..i64::MAX).collect();
        assert_eq!(flux.len(), 10);
        assert_eq!(flux[&0], 3600.0);
        assert_eq!(flux[&1], 4500.0);
    }

    #[test]
    fn series_pairs_months_with_flux() {
        let trace = build();
        let a = CosmicAnalysis::over(&trace);
        let cpu = a.monthly_series(SystemId::new(18), FailureClass::Hw(HardwareComponent::Cpu));
        assert_eq!(cpu.len(), 10);
        // High months: 3 of 10 nodes failed.
        let high: Vec<&MonthlyFluxPoint> = cpu
            .iter()
            .filter(|p| p.counts_per_minute > 4000.0)
            .collect();
        assert!(high.iter().all(|p| (p.probability - 0.3).abs() < 1e-9));
        let low: Vec<&MonthlyFluxPoint> = cpu
            .iter()
            .filter(|p| p.counts_per_minute < 4000.0)
            .collect();
        assert!(low.iter().all(|p| p.probability == 0.0));
    }

    #[test]
    fn cpu_correlates_dram_does_not() {
        let trace = build();
        let a = CosmicAnalysis::over(&trace);
        let cpu = a
            .flux_correlation(SystemId::new(18), FailureClass::Hw(HardwareComponent::Cpu))
            .unwrap();
        assert!(cpu > 0.95, "cpu r = {cpu}");
        let dram = a
            .flux_correlation(
                SystemId::new(18),
                FailureClass::Hw(HardwareComponent::MemoryDimm),
            )
            .unwrap_or(0.0);
        assert!(dram.abs() < 0.3, "dram r = {dram}");
    }

    #[test]
    fn rank_correlation_same_direction() {
        let trace = build();
        let a = CosmicAnalysis::over(&trace);
        let cpu = a
            .flux_rank_correlation(SystemId::new(18), FailureClass::Hw(HardwareComponent::Cpu))
            .unwrap();
        assert!(cpu > 0.9);
    }

    #[test]
    fn binned_series_collapses_to_two_levels() {
        let trace = build();
        let a = CosmicAnalysis::over(&trace);
        let bins = a.binned_series(
            SystemId::new(18),
            FailureClass::Hw(HardwareComponent::Cpu),
            2,
        );
        assert_eq!(bins.len(), 2);
        assert!(bins[0].0 < bins[1].0);
        assert!(bins[0].1 < bins[1].1);
    }

    #[test]
    fn unknown_system_empty() {
        let trace = build();
        let a = CosmicAnalysis::over(&trace);
        assert!(a
            .monthly_series(SystemId::new(99), FailureClass::Any)
            .is_empty());
        assert!(a
            .flux_correlation(SystemId::new(99), FailureClass::Any)
            .is_none());
    }
}
