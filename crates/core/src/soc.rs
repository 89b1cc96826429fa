//! The implanted-SoC design database (Table 1 of the paper).
//!
//! Eleven published implanted BCI SoCs, with per-design channel count,
//! brain-contact area, power density, NI sampling rate, and wireless
//! capability. Designs 1–8 are wireless and form the target system of the
//! paper's analysis; designs 9–11 are wired and appear only in the
//! scale-to-1024 study (Fig. 4).
//!
//! # Examples
//!
//! ```
//! use mindful_core::soc::{published_socs, wireless_socs};
//!
//! assert_eq!(published_socs().len(), 11);
//! assert_eq!(wireless_socs().len(), 8);
//! let bisc = &published_socs()[0];
//! assert_eq!(bisc.name(), "BISC");
//! assert!((bisc.total_power().milliwatts() - 38.88).abs() < 1e-9);
//! ```

use core::fmt;

use crate::error::{ensure_fraction, ensure_positive, CoreError, Result};
use crate::units::{Area, Frequency, Power, PowerDensity};

/// The current standard channel count for large-scale neural interfaces.
pub(crate) const STANDARD_CHANNELS: u64 = 1024;

/// Default digitized sample bit width `d` (bits per sample).
///
/// The paper's worked OOK example uses `d = 10`.
pub(crate) const DEFAULT_SAMPLE_BITS: u8 = 10;

/// The sensing technology of a neural interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum NiTechnology {
    /// Micro-electrode sensing (penetrating, surface, or endovascular).
    Electrodes,
    /// Single-photon avalanche diode optical imaging (optogenetics).
    Spad,
}

impl fmt::Display for NiTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Electrodes => f.write_str("Electrodes"),
            Self::Spad => f.write_str("SPAD"),
        }
    }
}

/// Fractions of a design's power and area devoted to sensing at its
/// reference (1024-channel) point.
///
/// The paper splits each scaled SoC into sensing and non-sensing parts
/// (Eq. 2) but does not publish the split per design; these are the
/// documented assumptions of `DESIGN.md` §3.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensingFractions {
    power: f64,
    area: f64,
}

impl SensingFractions {
    /// Creates a sensing split; both fractions must lie in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FractionOutOfRange`] if either fraction is
    /// outside `[0, 1]`.
    pub fn new(power: f64, area: f64) -> Result<Self> {
        ensure_fraction("sensing power fraction", power)?;
        ensure_fraction("sensing area fraction", area)?;
        Ok(Self { power, area })
    }

    /// Fraction of total power consumed by sensing.
    #[must_use]
    pub fn power(&self) -> f64 {
        self.power
    }

    /// Fraction of total area occupied by sensing.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.area
    }
}

impl Default for SensingFractions {
    /// An even split between sensing and non-sensing.
    fn default() -> Self {
        Self {
            power: 0.5,
            area: 0.5,
        }
    }
}

/// A published implanted-SoC design point (one row of Table 1).
///
/// Construct custom designs with [`SocSpec::builder`]; the paper's rows are
/// available from [`published_socs`].
#[derive(Debug, Clone, PartialEq)]
pub struct SocSpec {
    id: u8,
    name: String,
    technology: NiTechnology,
    channels: u64,
    area: Area,
    power_density: PowerDensity,
    sampling: Frequency,
    wireless: bool,
    validated_in_vivo: bool,
    sample_bits: u8,
    sensing: SensingFractions,
}

impl SocSpec {
    /// Starts building a custom SoC specification.
    ///
    /// # Examples
    ///
    /// ```
    /// use mindful_core::soc::{NiTechnology, SocSpec};
    /// use mindful_core::units::{Area, Frequency, PowerDensity};
    ///
    /// let soc = SocSpec::builder("MyImplant")
    ///     .technology(NiTechnology::Electrodes)
    ///     .channels(256)
    ///     .area(Area::from_square_millimeters(9.0))
    ///     .power_density(PowerDensity::from_milliwatts_per_square_centimeter(12.0))
    ///     .sampling(Frequency::from_kilohertz(10.0))
    ///     .wireless(true)
    ///     .build()?;
    /// assert_eq!(soc.channels(), 256);
    /// # Ok::<(), mindful_core::CoreError>(())
    /// ```
    #[must_use]
    pub fn builder(name: impl Into<String>) -> SocSpecBuilder {
        SocSpecBuilder::new(name)
    }

    /// The 1-based id matching the paper's Table 1 (0 for custom designs).
    #[must_use]
    pub fn id(&self) -> u8 {
        self.id
    }

    /// The design's short name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The neural-interface sensing technology.
    #[must_use]
    pub fn technology(&self) -> NiTechnology {
        self.technology
    }

    /// Number of channels recorded in parallel.
    #[must_use]
    pub fn channels(&self) -> u64 {
        self.channels
    }

    /// Brain-contact area of the SoC.
    #[must_use]
    pub fn area(&self) -> Area {
        self.area
    }

    /// Reported power density over the contact area.
    #[must_use]
    pub fn power_density(&self) -> PowerDensity {
        self.power_density
    }

    /// NI sampling frequency `f`.
    #[must_use]
    pub fn sampling(&self) -> Frequency {
        self.sampling
    }

    /// Whether the design integrates a wireless transceiver.
    #[must_use]
    pub fn is_wireless(&self) -> bool {
        self.wireless
    }

    /// Whether the design was validated in vivo / ex vivo.
    #[must_use]
    pub fn is_validated_in_vivo(&self) -> bool {
        self.validated_in_vivo
    }

    /// Digitized sample bit width `d`.
    #[must_use]
    pub fn sample_bits(&self) -> u8 {
        self.sample_bits
    }

    /// The assumed sensing/non-sensing split at the reference point.
    #[must_use]
    pub fn sensing_fractions(&self) -> SensingFractions {
        self.sensing
    }

    /// Total power: `P = power density × area`.
    #[must_use]
    pub fn total_power(&self) -> Power {
        self.power_density * self.area
    }

    /// Reported area per channel.
    #[must_use]
    pub fn area_per_channel(&self) -> Area {
        self.area / self.channels as f64
    }

    /// Reported power per channel.
    #[must_use]
    pub fn power_per_channel(&self) -> Power {
        self.total_power() / self.channels as f64
    }
}

impl fmt::Display for SocSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} ch, {:.2} mm^2, {:.1} mW/cm^2, {:.0} kHz, {})",
            self.name,
            self.channels,
            self.area.square_millimeters(),
            self.power_density.milliwatts_per_square_centimeter(),
            self.sampling.kilohertz(),
            if self.wireless { "wireless" } else { "wired" },
        )
    }
}

/// Incrementally configures and validates a [`SocSpec`].
#[derive(Debug, Clone)]
pub struct SocSpecBuilder {
    id: u8,
    name: String,
    technology: NiTechnology,
    channels: u64,
    area: Option<Area>,
    power_density: Option<PowerDensity>,
    sampling: Option<Frequency>,
    wireless: bool,
    validated_in_vivo: bool,
    sample_bits: u8,
    sensing: SensingFractions,
}

impl SocSpecBuilder {
    fn new(name: impl Into<String>) -> Self {
        Self {
            id: 0,
            name: name.into(),
            technology: NiTechnology::Electrodes,
            channels: 0,
            area: None,
            power_density: None,
            sampling: None,
            wireless: false,
            validated_in_vivo: false,
            sample_bits: DEFAULT_SAMPLE_BITS,
            sensing: SensingFractions::default(),
        }
    }

    /// Sets the Table 1 id (0 = custom).
    #[must_use]
    pub fn id(mut self, id: u8) -> Self {
        self.id = id;
        self
    }

    /// Sets the NI technology (default: electrodes).
    #[must_use]
    pub fn technology(mut self, technology: NiTechnology) -> Self {
        self.technology = technology;
        self
    }

    /// Sets the channel count (required, must be ≥ 1).
    #[must_use]
    pub fn channels(mut self, channels: u64) -> Self {
        self.channels = channels;
        self
    }

    /// Sets the brain-contact area (required).
    #[must_use]
    pub fn area(mut self, area: Area) -> Self {
        self.area = Some(area);
        self
    }

    /// Sets the power density over the contact area (required).
    #[must_use]
    pub fn power_density(mut self, power_density: PowerDensity) -> Self {
        self.power_density = Some(power_density);
        self
    }

    /// Sets the NI sampling frequency (required).
    #[must_use]
    pub fn sampling(mut self, sampling: Frequency) -> Self {
        self.sampling = Some(sampling);
        self
    }

    /// Marks the design as wireless (default: wired).
    #[must_use]
    pub fn wireless(mut self, wireless: bool) -> Self {
        self.wireless = wireless;
        self
    }

    /// Marks the design as validated in vivo (default: false).
    #[must_use]
    pub fn validated_in_vivo(mut self, validated: bool) -> Self {
        self.validated_in_vivo = validated;
        self
    }

    /// Sets the digitized sample bit width (default: 10).
    #[must_use]
    pub fn sample_bits(mut self, bits: u8) -> Self {
        self.sample_bits = bits;
        self
    }

    /// Sets the assumed sensing/non-sensing split at the reference point.
    #[must_use]
    pub fn sensing_fractions(mut self, sensing: SensingFractions) -> Self {
        self.sensing = sensing;
        self
    }

    /// Validates the configuration and produces the [`SocSpec`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroChannels`] if no channels were set and
    /// [`CoreError::NonPositiveParameter`] if area, power density,
    /// sampling frequency, or sample bit width is missing or non-positive.
    pub fn build(self) -> Result<SocSpec> {
        if self.channels == 0 {
            return Err(CoreError::ZeroChannels);
        }
        let area = self.area.unwrap_or(Area::ZERO);
        ensure_positive("area", area.square_meters())?;
        let power_density = self.power_density.unwrap_or(PowerDensity::ZERO);
        ensure_positive("power density", power_density.watts_per_square_meter())?;
        let sampling = self.sampling.unwrap_or(Frequency::ZERO);
        ensure_positive("sampling frequency", sampling.hertz())?;
        ensure_positive("sample bits", f64::from(self.sample_bits))?;
        Ok(SocSpec {
            id: self.id,
            name: self.name,
            technology: self.technology,
            channels: self.channels,
            area,
            power_density,
            sampling,
            wireless: self.wireless,
            validated_in_vivo: self.validated_in_vivo,
            sample_bits: self.sample_bits,
            sensing: self.sensing,
        })
    }
}

/// One row of Table 1, written as raw literals for readability.
struct Row {
    id: u8,
    name: &'static str,
    tech: NiTechnology,
    channels: u64,
    area_mm2: f64,
    pd_mw_cm2: f64,
    f_khz: f64,
    wireless: bool,
    in_vivo: bool,
    // ASSUMPTION (DESIGN.md §3.1): sensing power/area fractions at the
    // 1024-channel reference point, chosen to span the ~0.2–0.9 range of
    // Fig. 6's starting points while preserving the per-SoC ordering.
    sens_power: f64,
    sens_area: f64,
}

// Power densities for SoCs 5 and 6 are pinned by the Section 4.1 text
// rather than the (ambiguously typeset) table: scaling Muller et al. to
// 1024 channels must yield ~10 mW/cm² before the 2x area cut, and every
// scaled design must sit below the 40 mW/cm² budget line in Fig. 4.
const TABLE1: [Row; 11] = [
    Row {
        id: 1,
        name: "BISC",
        tech: NiTechnology::Electrodes,
        channels: 1024,
        area_mm2: 144.0,
        pd_mw_cm2: 27.0,
        f_khz: 8.0,
        wireless: true,
        in_vivo: true,
        sens_power: 0.60,
        sens_area: 0.55,
    },
    Row {
        id: 2,
        name: "Gilhotra et al.",
        tech: NiTechnology::Spad,
        channels: 49_152,
        area_mm2: 144.0,
        pd_mw_cm2: 33.0,
        f_khz: 8.0,
        wireless: true,
        in_vivo: true,
        sens_power: 0.60,
        sens_area: 0.65,
    },
    Row {
        id: 3,
        name: "Neuralink",
        tech: NiTechnology::Electrodes,
        channels: 1024,
        area_mm2: 20.0,
        pd_mw_cm2: 39.0,
        f_khz: 10.0,
        wireless: true,
        in_vivo: true,
        sens_power: 0.60,
        sens_area: 0.70,
    },
    Row {
        id: 4,
        name: "Shen et al.",
        tech: NiTechnology::Electrodes,
        channels: 16,
        area_mm2: 1.34,
        pd_mw_cm2: 2.2,
        f_khz: 10.0,
        wireless: true,
        in_vivo: true,
        sens_power: 0.50,
        sens_area: 0.30,
    },
    Row {
        id: 5,
        name: "Muller et al.",
        tech: NiTechnology::Electrodes,
        channels: 64,
        area_mm2: 5.76,
        pd_mw_cm2: 2.5,
        f_khz: 1.0,
        wireless: true,
        in_vivo: true,
        sens_power: 0.50,
        sens_area: 0.35,
    },
    Row {
        id: 6,
        name: "Yang et al.",
        tech: NiTechnology::Electrodes,
        channels: 4,
        area_mm2: 4.0,
        pd_mw_cm2: 1.3,
        f_khz: 20.0,
        wireless: true,
        in_vivo: true,
        sens_power: 0.50,
        sens_area: 0.35,
    },
    Row {
        id: 7,
        name: "WIMAGINE",
        tech: NiTechnology::Electrodes,
        channels: 64,
        area_mm2: 1960.0,
        pd_mw_cm2: 3.8,
        f_khz: 30.0,
        wireless: true,
        in_vivo: true,
        sens_power: 0.45,
        sens_area: 0.25,
    },
    Row {
        id: 8,
        name: "HALO",
        tech: NiTechnology::Electrodes,
        channels: 96,
        area_mm2: 1.0,
        pd_mw_cm2: 1500.0,
        f_khz: 30.0,
        wireless: true,
        in_vivo: false,
        sens_power: 0.40,
        sens_area: 0.55,
    },
    Row {
        id: 9,
        name: "Neuropixels",
        tech: NiTechnology::Electrodes,
        channels: 384,
        area_mm2: 22.0,
        pd_mw_cm2: 21.0,
        f_khz: 30.0,
        wireless: false,
        in_vivo: true,
        sens_power: 0.70,
        sens_area: 0.70,
    },
    Row {
        id: 10,
        name: "Jang et al.",
        tech: NiTechnology::Electrodes,
        channels: 1024,
        area_mm2: 3.0,
        pd_mw_cm2: 17.0,
        f_khz: 20.0,
        wireless: false,
        in_vivo: true,
        sens_power: 0.70,
        sens_area: 0.70,
    },
    Row {
        id: 11,
        name: "Pollman et al.",
        tech: NiTechnology::Spad,
        channels: 49_152,
        area_mm2: 50.0,
        pd_mw_cm2: 36.0,
        f_khz: 8.0,
        wireless: false,
        in_vivo: true,
        sens_power: 0.70,
        sens_area: 0.70,
    },
];

fn spec_from_row(row: &Row) -> SocSpec {
    SocSpec::builder(row.name)
        .id(row.id)
        .technology(row.tech)
        .channels(row.channels)
        .area(Area::from_square_millimeters(row.area_mm2))
        .power_density(PowerDensity::from_milliwatts_per_square_centimeter(
            row.pd_mw_cm2,
        ))
        .sampling(Frequency::from_kilohertz(row.f_khz))
        .wireless(row.wireless)
        .validated_in_vivo(row.in_vivo)
        .sample_bits(DEFAULT_SAMPLE_BITS)
        .sensing_fractions(
            SensingFractions::new(row.sens_power, row.sens_area)
                .expect("table fractions are valid"),
        )
        .build()
        .expect("table rows are valid")
}

/// Returns all 11 published SoC designs of Table 1, in paper order.
#[must_use]
pub fn published_socs() -> Vec<SocSpec> {
    TABLE1.iter().map(spec_from_row).collect()
}

/// Returns the wireless designs (SoCs 1–8), the paper's target systems.
#[must_use]
pub fn wireless_socs() -> Vec<SocSpec> {
    TABLE1
        .iter()
        .filter(|r| r.wireless)
        .map(spec_from_row)
        .collect()
}

/// Looks up a design by its 1-based Table 1 id.
///
/// # Errors
///
/// Returns [`CoreError::UnknownSoc`] for ids outside `1..=11`.
pub fn soc_by_id(id: u8) -> Result<SocSpec> {
    TABLE1
        .iter()
        .find(|r| r.id == id)
        .map(spec_from_row)
        .ok_or(CoreError::UnknownSoc { id })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_eleven_rows_eight_wireless() {
        assert_eq!(published_socs().len(), 11);
        assert_eq!(wireless_socs().len(), 8);
    }

    #[test]
    fn ids_are_sequential_and_lookup_works() {
        for (i, soc) in published_socs().iter().enumerate() {
            assert_eq!(soc.id() as usize, i + 1);
            assert_eq!(&soc_by_id(soc.id()).unwrap(), soc);
        }
        assert!(matches!(
            soc_by_id(12),
            Err(CoreError::UnknownSoc { id: 12 })
        ));
        assert!(soc_by_id(0).is_err());
    }

    #[test]
    fn bisc_parameters_match_table() {
        let bisc = soc_by_id(1).unwrap();
        assert_eq!(bisc.name(), "BISC");
        assert_eq!(bisc.channels(), 1024);
        assert_eq!(bisc.technology(), NiTechnology::Electrodes);
        assert!((bisc.area().square_millimeters() - 144.0).abs() < 1e-9);
        assert!((bisc.power_density().milliwatts_per_square_centimeter() - 27.0).abs() < 1e-9);
        assert!((bisc.sampling().kilohertz() - 8.0).abs() < 1e-9);
        assert!(bisc.is_wireless());
        assert!(bisc.is_validated_in_vivo());
    }

    #[test]
    fn halo_power_density_is_extreme() {
        let halo = soc_by_id(8).unwrap();
        assert!(
            halo.power_density().milliwatts_per_square_centimeter()
                > crate::budget::SAFE_POWER_DENSITY.milliwatts_per_square_centimeter()
        );
        assert!(!halo.is_validated_in_vivo());
    }

    #[test]
    fn wired_socs_are_nine_to_eleven() {
        let wired: Vec<u8> = published_socs()
            .iter()
            .filter(|s| !s.is_wireless())
            .map(SocSpec::id)
            .collect();
        assert_eq!(wired, vec![9, 10, 11]);
    }

    #[test]
    fn per_channel_metrics() {
        let halo = soc_by_id(8).unwrap();
        // 1 mm² / 96 channels.
        assert!((halo.area_per_channel().square_millimeters() - 1.0 / 96.0).abs() < 1e-12);
        // 15 mW / 96 channels.
        assert!((halo.power_per_channel().milliwatts() - 15.0 / 96.0).abs() < 1e-9);
    }

    #[test]
    fn raw_data_rate_matches_worked_example() {
        // The paper's OOK example: 1024 ch × 10 b × 8 kHz = 81.92 Mbps ≈ 82.
        let bisc = soc_by_id(1).unwrap();
        let rate = crate::throughput::sensing_throughput(
            bisc.channels(),
            bisc.sample_bits(),
            bisc.sampling(),
        );
        assert!((rate.megabits_per_second() - 81.92).abs() < 1e-9);
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        assert!(matches!(
            SocSpec::builder("x").build(),
            Err(CoreError::ZeroChannels)
        ));
        let partial = SocSpec::builder("x").channels(1).build();
        assert!(matches!(
            partial,
            Err(CoreError::NonPositiveParameter { name: "area", .. })
        ));
    }

    #[test]
    fn builder_round_trips_all_fields() {
        let soc = SocSpec::builder("Custom")
            .id(0)
            .technology(NiTechnology::Spad)
            .channels(2048)
            .area(Area::from_square_millimeters(50.0))
            .power_density(PowerDensity::from_milliwatts_per_square_centimeter(10.0))
            .sampling(Frequency::from_kilohertz(5.0))
            .wireless(true)
            .validated_in_vivo(false)
            .sample_bits(12)
            .sensing_fractions(SensingFractions::new(0.4, 0.6).unwrap())
            .build()
            .unwrap();
        assert_eq!(soc.id(), 0);
        assert_eq!(soc.technology(), NiTechnology::Spad);
        assert_eq!(soc.channels(), 2048);
        assert_eq!(soc.sample_bits(), 12);
        assert!((soc.sensing_fractions().power() - 0.4).abs() < 1e-12);
        assert!((soc.sensing_fractions().area() - 0.6).abs() < 1e-12);
        assert!((soc.total_power().milliwatts() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn sensing_fractions_validate() {
        assert!(SensingFractions::new(1.1, 0.5).is_err());
        assert!(SensingFractions::new(0.5, -0.1).is_err());
        let d = SensingFractions::default();
        assert!((d.power() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let s = soc_by_id(3).unwrap().to_string();
        assert!(s.contains("Neuralink"));
        assert!(s.contains("1024 ch"));
        assert!(s.contains("wireless"));
    }

    #[test]
    fn spad_designs_are_two_and_eleven() {
        let spads: Vec<u8> = published_socs()
            .iter()
            .filter(|s| s.technology() == NiTechnology::Spad)
            .map(SocSpec::id)
            .collect();
        assert_eq!(spads, vec![2, 11]);
        assert_eq!(NiTechnology::Spad.to_string(), "SPAD");
    }
}
