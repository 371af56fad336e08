//! Energy accounting for accelerator jobs under DVFS.
//!
//! Substitutes for the paper's post-place-and-route PrimeTime PX power
//! model (§4.1): energies are built from the module's area breakdown and
//! per-datapath activity counts, then scaled across operating points with
//! the standard CMOS relations
//!
//! * dynamic energy per job: `E_dyn ∝ Σ activity · C_eff · V²` — cycle
//!   counts are frequency-independent, so only `V²` scales;
//! * leakage: `P_leak ∝ V`, integrated over the (frequency-dependent)
//!   execution time, so running slower *increases* leakage energy — the
//!   effect that keeps the energy-optimal level above the bottom of the
//!   ladder for long jobs.
//!
//! Accelerators are assumed power-gated between jobs (energy is charged
//! only while running), matching the paper's per-job energy normalization.

use predvfs_rtl::area::AreaBreakdown;
use predvfs_rtl::module::Module;

use crate::ladder::OperatingPoint;

/// Technology coefficients for the energy model.
#[derive(Debug, Clone, Copy)]
pub struct PowerParams {
    /// Dynamic energy density of active logic at nominal voltage
    /// (pJ per µm² per cycle, folded with a typical activity factor).
    pub dyn_pj_per_um2_cycle: f64,
    /// Leakage power density at nominal voltage (µW per µm²).
    pub leak_uw_per_um2: f64,
}

impl Default for PowerParams {
    fn default() -> Self {
        PowerParams {
            dyn_pj_per_um2_cycle: 1.5e-3,
            leak_uw_per_um2: 2.0e-5,
        }
    }
}

/// Per-module energy model, priced once and reused for every job.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    ctrl_pj_per_cycle: f64,
    dp_pj_per_cycle: Vec<f64>,
    leak_uw: f64,
    f_nominal_hz: f64,
    vnom: f64,
}

impl EnergyModel {
    /// Builds the model from a module, its area breakdown, and technology
    /// parameters. `f_nominal_hz` is the synthesis frequency at nominal
    /// voltage.
    pub fn new(
        module: &Module,
        area: &AreaBreakdown,
        params: &PowerParams,
        f_nominal_hz: f64,
        vnom: f64,
    ) -> EnergyModel {
        let ctrl_pj_per_cycle = area.control_um2 * params.dyn_pj_per_um2_cycle;
        let dp_pj_per_cycle = module
            .datapaths
            .iter()
            .map(|d| d.area_um2 * params.dyn_pj_per_um2_cycle * d.energy_per_cycle)
            .collect();
        let leak_uw = area.total_um2() * params.leak_uw_per_um2;
        EnergyModel {
            ctrl_pj_per_cycle,
            dp_pj_per_cycle,
            leak_uw,
            f_nominal_hz,
            vnom,
        }
    }

    /// Scales the leakage power so that, for a job with the given average
    /// dynamic energy per cycle, leakage contributes `share` of total
    /// energy at the nominal operating point. This stands in for the
    /// paper's gate-level leakage characterization: the *share* at nominal
    /// is the calibrated quantity.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= share < 1`.
    pub fn calibrate_leakage(&mut self, avg_dyn_pj_per_cycle: f64, share: f64) {
        assert!((0.0..1.0).contains(&share), "leak share out of range");
        // leak_pj_per_cycle = share/(1-share) * dyn; P[µW] = pJ/cycle * f[MHz]...
        // at nominal: leak energy per cycle = leak_uw / f_hz * 1e6 (pJ).
        let target_leak_pj_per_cycle = share / (1.0 - share) * avg_dyn_pj_per_cycle;
        self.leak_uw = target_leak_pj_per_cycle * self.f_nominal_hz / 1e6;
    }

    /// Nominal frequency in Hz.
    pub fn f_nominal_hz(&self) -> f64 {
        self.f_nominal_hz
    }

    /// Leakage power at nominal voltage, in µW.
    pub fn leak_uw(&self) -> f64 {
        self.leak_uw
    }

    /// Dynamic energy (pJ) of a job at *nominal* voltage, from its cycle
    /// count and per-datapath activity.
    ///
    /// # Panics
    ///
    /// Panics if `dp_active` length mismatches the module.
    pub fn dynamic_pj_nominal(&self, cycles: u64, dp_active: &[u64]) -> f64 {
        assert_eq!(dp_active.len(), self.dp_pj_per_cycle.len());
        let mut e = cycles as f64 * self.ctrl_pj_per_cycle;
        for (a, pj) in dp_active.iter().zip(&self.dp_pj_per_cycle) {
            e += *a as f64 * pj;
        }
        e
    }

    /// Total job energy (pJ) at an operating point. Leakage power scales
    /// as `(V / V_nom)^leak_voltage_exp`; 1 gives the linear `P_leak ∝ V`
    /// of the module docs.
    pub fn job_pj(
        &self,
        cycles: u64,
        dp_active: &[u64],
        point: OperatingPoint,
        leak_voltage_exp: f64,
    ) -> f64 {
        let vn = point.volts / self.vnom;
        let dynamic = self.dynamic_pj_nominal(cycles, dp_active) * vn * vn;
        let time_us = cycles as f64 / (self.f_nominal_hz * point.freq_ratio) * 1e6;
        let leak = self.leak_uw * vn.powf(leak_voltage_exp) * time_us;
        dynamic + leak
    }

    /// Execution time (seconds) of `cycles` at an operating point.
    pub fn time_s(&self, cycles: u64, point: OperatingPoint) -> f64 {
        cycles as f64 / (self.f_nominal_hz * point.freq_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predvfs_rtl::builder::{ModuleBuilder, E};
    use predvfs_rtl::AsicAreaModel;

    fn toy() -> Module {
        let mut b = ModuleBuilder::new("m");
        let fsm = b.fsm("ctrl", &["A", "B"]);
        b.trans(&fsm, "A", "B", E::one());
        b.datapath_compute("pipe", fsm.in_state("A"), 10_000.0, 1.0, 100, 2);
        b.done_when(fsm.in_state("B"));
        b.build().unwrap()
    }

    fn model() -> EnergyModel {
        let m = toy();
        let area = AsicAreaModel::default().area(&m);
        EnergyModel::new(&m, &area, &PowerParams::default(), 250e6, 1.0)
    }

    fn pt(volts: f64, ratio: f64) -> OperatingPoint {
        OperatingPoint {
            volts,
            freq_ratio: ratio,
        }
    }

    #[test]
    fn dynamic_energy_scales_with_v_squared() {
        let em = model();
        let nominal = em.job_pj(1000, &[500], pt(1.0, 1.0), 1.0);
        let mut low = model();
        low.calibrate_leakage(0.0, 0.0); // kill leakage for a pure check
        let half_v = low.job_pj(1000, &[500], pt(0.5, 0.3), 1.0);
        let full_v = low.job_pj(1000, &[500], pt(1.0, 1.0), 1.0);
        assert!((half_v / full_v - 0.25).abs() < 1e-9);
        assert!(nominal >= full_v, "leakage adds energy");
    }

    #[test]
    fn leakage_grows_when_running_slower() {
        let mut em = model();
        em.calibrate_leakage(em.dynamic_pj_nominal(1, &[0]), 0.25);
        let fast = em.job_pj(10_000, &[0], pt(1.0, 1.0), 1.0);
        let slow_same_v = em.job_pj(10_000, &[0], pt(1.0, 0.5), 1.0);
        assert!(slow_same_v > fast, "same V, longer time, more leakage");
    }

    #[test]
    fn calibrated_leak_share_holds_at_nominal() {
        let mut em = model();
        let dyn_per_cycle = em.dynamic_pj_nominal(1000, &[1000]) / 1000.0;
        em.calibrate_leakage(dyn_per_cycle, 0.25);
        let total = em.job_pj(1000, &[1000], pt(1.0, 1.0), 1.0);
        let dynamic = em.dynamic_pj_nominal(1000, &[1000]);
        let share = (total - dynamic) / total;
        assert!((share - 0.25).abs() < 1e-9, "share {share}");
    }

    #[test]
    #[should_panic(expected = "leak share out of range")]
    fn leak_share_must_be_fraction() {
        let mut em = model();
        em.calibrate_leakage(1.0, 1.0);
    }

    #[test]
    #[should_panic]
    fn dp_activity_arity_checked() {
        let em = model();
        // toy() has one datapath; passing two activity counts must panic.
        em.dynamic_pj_nominal(10, &[1, 2]);
    }

    #[test]
    fn time_scales_inverse_frequency() {
        let em = model();
        let t1 = em.time_s(250_000_000, pt(1.0, 1.0));
        assert!((t1 - 1.0).abs() < 1e-12);
        let t2 = em.time_s(250_000_000, pt(0.625, 0.5));
        assert!((t2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lower_level_saves_energy_despite_leakage() {
        let mut em = model();
        em.calibrate_leakage(em.dynamic_pj_nominal(1000, &[800]) / 1000.0, 0.25);
        let nominal = em.job_pj(100_000, &[80_000], pt(1.0, 1.0), 1.0);
        let low = em.job_pj(100_000, &[80_000], pt(0.625, 0.48), 1.0);
        assert!(low < nominal);
        // But the saving is less than the pure V² ratio because of leakage.
        assert!(low / nominal > 0.625f64.powi(2));
    }
}
