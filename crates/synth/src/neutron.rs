//! Cosmic-ray neutron-flux curve.
//!
//! The paper uses 1-minute neutron counts from the Climax, Colorado
//! monitor, aggregated to monthly means spanning most of a solar cycle
//! (monthly averages roughly 3400-4600 counts/minute). This module
//! synthesizes an equivalent curve: an 11-year sinusoid (the solar
//! cycle modulates galactic cosmic rays), short Forbush-decrease
//! disturbances after flares, and sampling noise.

use crate::spec::NeutronSpec;
use hpcfail_stats::dist::{Distribution, Normal};
use hpcfail_types::prelude::*;
use rand::Rng;

/// Deterministic (noise-free) flux level at `day`, before disturbances.
pub fn base_flux(spec: &NeutronSpec, day: f64) -> f64 {
    let phase = 2.0 * std::f64::consts::PI * day / spec.cycle_days;
    spec.mean_counts + spec.cycle_amplitude * phase.sin()
}

/// Generates the sample series over `days` days.
pub fn generate_neutron<R: Rng + ?Sized>(
    rng: &mut R,
    spec: &NeutronSpec,
    days: u32,
) -> Vec<NeutronSample> {
    let noise = Normal::new(0.0, spec.noise_sigma.max(1e-9));
    let per_day = spec.samples_per_day.max(1);
    let step = 86_400 / per_day as i64;

    // Forbush decreases: sharp drops recovering over ~10 days.
    let flare_rate = spec.flares_per_year / 365.25;
    let mut flares: Vec<(f64, f64)> = Vec::new(); // (day, depth)
    for day in 0..days {
        if rng.gen_range(0.0..1.0) < flare_rate {
            flares.push((day as f64, rng.gen_range(0.03..0.10)));
        }
    }

    let mut out = Vec::with_capacity(days as usize * per_day as usize);
    for day in 0..days {
        for k in 0..per_day {
            let t = day as i64 * 86_400 + k as i64 * step;
            let d = day as f64 + k as f64 / per_day as f64;
            let mut flux = base_flux(spec, d);
            for &(fd, depth) in &flares {
                let age = d - fd;
                if (0.0..30.0).contains(&age) {
                    flux *= 1.0 - depth * (-age / 10.0).exp();
                }
            }
            flux += noise.sample(rng);
            out.push(NeutronSample {
                time: Timestamp::from_seconds(t),
                counts_per_minute: flux.max(0.0),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn flux_stays_in_climax_range() {
        let spec = NeutronSpec::default();
        let mut rng = StdRng::seed_from_u64(3);
        let samples = generate_neutron(&mut rng, &spec, 3300);
        assert_eq!(samples.len(), 3300 * 24);
        for s in &samples {
            assert!(
                s.counts_per_minute > 2500.0 && s.counts_per_minute < 5000.0,
                "flux {} out of range",
                s.counts_per_minute
            );
        }
    }

    #[test]
    fn solar_cycle_visible_in_monthly_means() {
        let spec = NeutronSpec::default();
        let mut rng = StdRng::seed_from_u64(4);
        let samples = generate_neutron(&mut rng, &spec, 3300);
        let monthly: Vec<f64> = samples
            .chunk_by(|a, b| a.time.month_index() == b.time.month_index())
            .map(|run| run.iter().map(|s| s.counts_per_minute).sum::<f64>() / run.len() as f64)
            .collect();
        assert_eq!(monthly.len(), 110);
        let min = monthly.iter().copied().fold(f64::INFINITY, f64::min);
        let max = monthly.iter().copied().fold(0.0, f64::max);
        // The sinusoid's swing should survive averaging.
        assert!(
            max - min > 0.8 * 2.0 * spec.cycle_amplitude * 0.8,
            "swing {}",
            max - min
        );
    }

    #[test]
    fn base_flux_is_periodic() {
        let spec = NeutronSpec::default();
        let a = base_flux(&spec, 100.0);
        let b = base_flux(&spec, 100.0 + spec.cycle_days);
        assert!((a - b).abs() < 1e-6);
    }
}
