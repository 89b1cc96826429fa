//! # MINDFUL thermal — bio-heat safety substrate
//!
//! The 40 mW/cm² power-density limit of Section 3.2 comes from thermal
//! physiology: perfused brain tissue must not warm more than 1–2 °C.
//! This crate makes that connection explicit with a steady-state Pennes
//! bio-heat model of a flat subdural implant dissipating a uniform heat
//! flux into perfused cortex:
//!
//! ```text
//! k·T''(x) − ρ_b·c_b·ω·(T − T_a) + q = 0
//! ```
//!
//! Both the closed-form half-space solution and a finite-difference
//! solver are provided; they cross-validate each other in the tests, and
//! the paper's 40 mW/cm² limit lands in the 1–2 °C band once the flux
//! split between cortex and the CSF above the implant is accounted for.
//!
//! ## Quick start
//!
//! ```
//! use mindful_thermal::prelude::*;
//! use mindful_core::budget::SAFE_POWER_DENSITY;
//!
//! let tissue = TissueProperties::gray_matter();
//! let model = ImplantThermalModel::new(tissue, FluxSplit::DualSided)?;
//! let dt = model.surface_temperature_rise(SAFE_POWER_DENSITY);
//! assert!(dt > 0.5 && dt < 2.5, "40 mW/cm^2 sits in the 1-2 C band: {dt}");
//! # Ok::<(), mindful_thermal::ThermalError>(())
//! ```

use core::fmt;

use mindful_core::units::PowerDensity;

/// Errors produced by the thermal model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ThermalError {
    /// A physical parameter failed validation.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The finite-difference grid was too small.
    GridTooSmall {
        /// Nodes requested.
        nodes: usize,
    },
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameter { name, value } => {
                write!(f, "parameter `{name}` is invalid: {value}")
            }
            Self::GridTooSmall { nodes } => {
                write!(
                    f,
                    "finite-difference grid needs at least 8 nodes, got {nodes}"
                )
            }
        }
    }
}

impl std::error::Error for ThermalError {}

/// Convenience alias for results in this crate.
pub type Result<T, E = ThermalError> = core::result::Result<T, E>;

/// Thermophysical properties of perfused tissue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TissueProperties {
    /// Thermal conductivity in W/(m·K).
    pub conductivity: f64,
    /// Blood density in kg/m³.
    pub blood_density: f64,
    /// Blood specific heat in J/(kg·K).
    pub blood_specific_heat: f64,
    /// Volumetric perfusion rate in 1/s.
    pub perfusion: f64,
}

impl TissueProperties {
    /// Cortical gray matter with its characteristically high blood flow
    /// (~60 mL/100 g/min), per the bio-heat literature cited in
    /// Section 3.2.
    #[must_use]
    pub fn gray_matter() -> Self {
        Self {
            conductivity: 0.52,
            blood_density: 1050.0,
            blood_specific_heat: 3600.0,
            perfusion: 0.0104,
        }
    }

    /// White matter: lower perfusion (~20 mL/100 g/min).
    #[must_use]
    pub fn white_matter() -> Self {
        Self {
            perfusion: 0.0035,
            ..Self::gray_matter()
        }
    }

    /// Validates the properties.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for non-positive
    /// values.
    pub(crate) fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("conductivity", self.conductivity),
            ("blood density", self.blood_density),
            ("blood specific heat", self.blood_specific_heat),
            ("perfusion", self.perfusion),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(ThermalError::InvalidParameter { name, value: v });
            }
        }
        Ok(())
    }

    /// The Pennes sink coefficient `ρ_b · c_b · ω` in W/(m³·K).
    #[must_use]
    pub(crate) fn sink_coefficient(&self) -> f64 {
        self.blood_density * self.blood_specific_heat * self.perfusion
    }

    /// The thermal penetration depth `L = √(k / (ρ_b c_b ω))` in metres.
    #[must_use]
    pub fn penetration_depth(&self) -> f64 {
        (self.conductivity / self.sink_coefficient()).sqrt()
    }
}

/// How the implant's dissipated heat divides between the cortex below
/// and the CSF/dura above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FluxSplit {
    /// All heat enters the cortex (worst case).
    CortexOnly,
    /// Heat leaves both faces equally — the flat subdural form factor of
    /// Fig. 2, with CSF convection carrying the upper half away.
    DualSided,
}

impl FluxSplit {
    /// Fraction of the total flux entering the cortex.
    #[must_use]
    pub(crate) fn cortex_fraction(&self) -> f64 {
        match self {
            Self::CortexOnly => 1.0,
            Self::DualSided => 0.5,
        }
    }
}

/// Steady-state thermal model of a flat implant on perfused cortex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImplantThermalModel {
    tissue: TissueProperties,
    split: FluxSplit,
}

impl ImplantThermalModel {
    /// Creates a model.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for bad tissue
    /// properties.
    pub fn new(tissue: TissueProperties, split: FluxSplit) -> Result<Self> {
        tissue.validate()?;
        Ok(Self { tissue, split })
    }

    /// The tissue properties.
    #[must_use]
    pub fn tissue(&self) -> &TissueProperties {
        &self.tissue
    }

    /// Closed-form steady-state surface temperature rise (°C above
    /// arterial temperature) for a uniform implant power density:
    /// `ΔT = q'' · L / k` with the cortex-side flux `q''`.
    #[must_use]
    pub fn surface_temperature_rise(&self, density: PowerDensity) -> f64 {
        let flux = density.watts_per_square_meter() * self.split.cortex_fraction();
        flux * self.tissue.penetration_depth() / self.tissue.conductivity
    }

    /// Temperature rise at depth `x` metres below the implant:
    /// `ΔT(x) = ΔT(0) · e^{−x/L}`.
    #[must_use]
    pub fn temperature_rise_at_depth(&self, density: PowerDensity, depth_m: f64) -> f64 {
        self.surface_temperature_rise(density)
            * (-depth_m.max(0.0) / self.tissue.penetration_depth()).exp()
    }

    /// The maximum power density that keeps the surface rise at or below
    /// `max_rise_c` — the inverse safety question.
    #[must_use]
    pub fn safe_power_density(&self, max_rise_c: f64) -> PowerDensity {
        let per_unit =
            self.surface_temperature_rise(PowerDensity::from_watts_per_square_meter(1.0));
        PowerDensity::from_watts_per_square_meter(max_rise_c.max(0.0) / per_unit)
    }

    /// Finite-difference steady-state solve over a tissue slab of
    /// `depth_m` with `nodes` grid points: surface flux boundary at the
    /// implant, arterial temperature at the far end. Returns the
    /// temperature-rise profile from the surface down.
    ///
    /// Used by the tests to validate the closed form; exposed for
    /// callers who want profiles with finite domains.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::GridTooSmall`] for fewer than 8 nodes.
    /// * [`ThermalError::InvalidParameter`] for a non-positive depth.
    pub fn solve_profile(
        &self,
        density: PowerDensity,
        depth_m: f64,
        nodes: usize,
    ) -> Result<Vec<f64>> {
        if nodes < 8 {
            return Err(ThermalError::GridTooSmall { nodes });
        }
        if !(depth_m > 0.0 && depth_m.is_finite()) {
            return Err(ThermalError::InvalidParameter {
                name: "depth",
                value: depth_m,
            });
        }
        let flux = density.watts_per_square_meter() * self.split.cortex_fraction();
        let k = self.tissue.conductivity;
        let s = self.tissue.sink_coefficient();
        let h = depth_m / (nodes - 1) as f64;

        // Tridiagonal system for k·T'' − s·T = 0 with:
        //   node 0 (surface): flux boundary over a half control volume;
        //   node N−1: T = 0 (arterial far field).
        let mut lower = vec![0.0; nodes];
        let mut diag = vec![0.0; nodes];
        let mut upper = vec![0.0; nodes];
        let mut rhs = vec![0.0; nodes];
        diag[0] = k / h + s * h / 2.0;
        upper[0] = -k / h;
        rhs[0] = flux;
        for i in 1..nodes - 1 {
            lower[i] = -k / (h * h);
            diag[i] = 2.0 * k / (h * h) + s;
            upper[i] = -k / (h * h);
        }
        diag[nodes - 1] = 1.0;
        // Thomas algorithm.
        for i in 1..nodes {
            let w = lower[i] / diag[i - 1];
            diag[i] -= w * upper[i - 1];
            rhs[i] -= w * rhs[i - 1];
        }
        let mut t = vec![0.0; nodes];
        t[nodes - 1] = rhs[nodes - 1] / diag[nodes - 1];
        for i in (0..nodes - 1).rev() {
            t[i] = (rhs[i] - upper[i] * t[i + 1]) / diag[i];
        }
        Ok(t)
    }
}

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::{FluxSplit, ImplantThermalModel, Result, ThermalError, TissueProperties};
}

#[cfg(test)]
mod tests {
    use super::*;
    use mindful_core::budget::SAFE_POWER_DENSITY;

    fn model(split: FluxSplit) -> ImplantThermalModel {
        ImplantThermalModel::new(TissueProperties::gray_matter(), split).unwrap()
    }

    #[test]
    fn penetration_depth_is_a_few_millimetres() {
        let l = TissueProperties::gray_matter().penetration_depth();
        assert!((2e-3..6e-3).contains(&l), "L = {l} m");
    }

    #[test]
    fn paper_limit_sits_in_the_one_to_two_degree_band() {
        let dt = model(FluxSplit::DualSided).surface_temperature_rise(SAFE_POWER_DENSITY);
        assert!((0.8..=2.2).contains(&dt), "40 mW/cm^2 -> {dt} C");
    }

    #[test]
    fn cortex_only_doubles_the_dual_sided_rise() {
        let d = PowerDensity::from_milliwatts_per_square_centimeter(20.0);
        let dual = model(FluxSplit::DualSided).surface_temperature_rise(d);
        let single = model(FluxSplit::CortexOnly).surface_temperature_rise(d);
        assert!((single / dual - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rise_is_linear_in_power_density() {
        let m = model(FluxSplit::DualSided);
        let d1 =
            m.surface_temperature_rise(PowerDensity::from_milliwatts_per_square_centimeter(10.0));
        let d4 =
            m.surface_temperature_rise(PowerDensity::from_milliwatts_per_square_centimeter(40.0));
        assert!((d4 / d1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rise_decays_with_depth() {
        let m = model(FluxSplit::CortexOnly);
        let d = SAFE_POWER_DENSITY;
        let surface = m.temperature_rise_at_depth(d, 0.0);
        let deep = m.temperature_rise_at_depth(d, 0.01);
        assert!((surface - m.surface_temperature_rise(d)).abs() < 1e-12);
        assert!(deep < surface * 0.1, "1 cm deep: {deep} vs {surface}");
    }

    #[test]
    fn safe_power_density_inverts_the_rise() {
        let m = model(FluxSplit::DualSided);
        let limit = m.safe_power_density(1.0);
        let back = m.surface_temperature_rise(limit);
        assert!((back - 1.0).abs() < 1e-9);
        // A 1 C cap permits a density in the tens of mW/cm².
        let mw = limit.milliwatts_per_square_centimeter();
        assert!((10.0..=80.0).contains(&mw), "{mw} mW/cm^2");
    }

    #[test]
    fn white_matter_runs_hotter_than_gray() {
        // Less perfusion → less heat removal → higher rise.
        let gray = model(FluxSplit::CortexOnly);
        let white =
            ImplantThermalModel::new(TissueProperties::white_matter(), FluxSplit::CortexOnly)
                .unwrap();
        let d = SAFE_POWER_DENSITY;
        assert!(white.surface_temperature_rise(d) > gray.surface_temperature_rise(d));
    }

    #[test]
    fn finite_difference_matches_closed_form() {
        let m = model(FluxSplit::CortexOnly);
        let d = SAFE_POWER_DENSITY;
        // Domain of 10 penetration depths ≈ semi-infinite.
        let depth = 10.0 * m.tissue().penetration_depth();
        let profile = m.solve_profile(d, depth, 4001).unwrap();
        let analytic = m.surface_temperature_rise(d);
        let rel = (profile[0] - analytic).abs() / analytic;
        assert!(rel < 0.01, "FD {} vs analytic {analytic}", profile[0]);
        // The profile decays monotonically.
        for pair in profile.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-12);
        }
        // And matches the exponential at one penetration depth.
        let idx = 400; // = depth L on this grid (4000 steps / 10 L)
        let expected = analytic * (-1.0_f64).exp();
        assert!((profile[idx] - expected).abs() / expected < 0.02);
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        let mut bad = TissueProperties::gray_matter();
        bad.conductivity = 0.0;
        assert!(ImplantThermalModel::new(bad, FluxSplit::CortexOnly).is_err());
        let m = model(FluxSplit::CortexOnly);
        assert!(m.solve_profile(SAFE_POWER_DENSITY, 0.01, 4).is_err());
        assert!(m.solve_profile(SAFE_POWER_DENSITY, -1.0, 100).is_err());
    }

    #[test]
    fn error_display_and_traits() {
        let e = ThermalError::GridTooSmall { nodes: 4 };
        assert!(e.to_string().contains('4'));
        fn check<T: std::error::Error + Send + Sync + 'static>() {}
        check::<ThermalError>();
    }
}
