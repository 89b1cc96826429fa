//! Strongly-typed physical quantities used throughout MINDFUL.
//!
//! The paper's equations mix milliwatts, square millimetres, mW/cm²,
//! megabits per second, picojoules per bit, and kilohertz. Mixing those up
//! silently is the classic failure mode of a port, so every quantity is a
//! newtype over `f64` held in SI base units (watts, square metres, W/m²,
//! joules, seconds, hertz, bits/s) with explicit conversion constructors
//! and accessors for the unit scales the paper reports.
//!
//! Only physically meaningful cross-unit operations are defined, e.g.
//! [`Power`] / [`Area`] = [`PowerDensity`] and [`DataRate`] ×
//! [`Energy`]-per-bit = [`Power`].
//!
//! # Examples
//!
//! ```
//! use mindful_core::units::{Area, Energy, Power, PowerDensity, DataRate};
//!
//! // BISC (SoC 1): 144 mm² at 27 mW/cm².
//! let area = Area::from_square_millimeters(144.0);
//! let density = PowerDensity::from_milliwatts_per_square_centimeter(27.0);
//! let power: Power = density * area;
//! assert!((power.milliwatts() - 38.88).abs() < 1e-9);
//!
//! // An 82 Mbps OOK link at 50 pJ/bit burns 4.1 mW.
//! let rate = DataRate::from_megabits_per_second(82.0);
//! let eb = Energy::from_picojoules(50.0);
//! let comm: Power = rate * eb;
//! assert!((comm.milliwatts() - 4.1).abs() < 1e-9);
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Defines an `f64` newtype quantity with standard arithmetic.
macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $base_unit:literal
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a quantity from its SI base-unit value.
            #[must_use]
            pub const fn from_base(value: f64) -> Self {
                Self(value)
            }

            /// Returns the value in the SI base unit.
            #[must_use]
            pub const fn base(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is finite (not NaN or infinite).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns `true` if the value is negative.
            #[must_use]
            pub fn is_negative(self) -> bool {
                self.0 < 0.0
            }

            /// Returns the smaller of two quantities.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two quantities.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Clamps the quantity into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl MulAssign<f64> for $name {
            fn mul_assign(&mut self, rhs: f64) {
                self.0 *= rhs;
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl DivAssign<f64> for $name {
            fn div_assign(&mut self, rhs: f64) {
                self.0 /= rhs;
            }
        }

        /// Dividing two like quantities yields a dimensionless ratio.
        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl<'a> Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(precision) = f.precision() {
                    write!(f, "{:.*} {}", precision, self.0, $base_unit)
                } else {
                    write!(f, "{} {}", self.0, $base_unit)
                }
            }
        }
    };
}

quantity!(
    /// Electrical power, stored in watts.
    Power,
    "W"
);

quantity!(
    /// Surface area, stored in square metres.
    Area,
    "m^2"
);

quantity!(
    /// Power per unit area, stored in W/m².
    ///
    /// The paper's safety limit is 40 mW/cm² = 400 W/m²
    /// (see [`crate::budget::SAFE_POWER_DENSITY`]).
    PowerDensity,
    "W/m^2"
);

quantity!(
    /// Energy, stored in joules. Also used for energy *per bit*.
    Energy,
    "J"
);

quantity!(
    /// A span of time, stored in seconds.
    TimeSpan,
    "s"
);

quantity!(
    /// Frequency (e.g., an NI sampling rate), stored in hertz.
    Frequency,
    "Hz"
);

quantity!(
    /// A data rate, stored in bits per second.
    DataRate,
    "bit/s"
);

impl Power {
    /// Creates a power from watts.
    #[must_use]
    pub const fn from_watts(watts: f64) -> Self {
        Self(watts)
    }

    /// Creates a power from milliwatts.
    #[must_use]
    pub const fn from_milliwatts(milliwatts: f64) -> Self {
        Self(milliwatts * 1e-3)
    }

    /// Creates a power from microwatts.
    #[must_use]
    pub const fn from_microwatts(microwatts: f64) -> Self {
        Self(microwatts * 1e-6)
    }

    /// Returns the power in watts.
    #[must_use]
    pub const fn watts(self) -> f64 {
        self.0
    }

    /// Returns the power in milliwatts.
    #[must_use]
    pub fn milliwatts(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the power in microwatts.
    #[must_use]
    pub fn microwatts(self) -> f64 {
        self.0 * 1e6
    }
}

impl Area {
    /// Creates an area from square millimetres.
    #[must_use]
    pub const fn from_square_millimeters(mm2: f64) -> Self {
        Self(mm2 * 1e-6)
    }

    /// Creates an area from square centimetres.
    #[must_use]
    pub const fn from_square_centimeters(cm2: f64) -> Self {
        Self(cm2 * 1e-4)
    }

    /// Creates an area from square micrometres (e.g., per-channel pitch area).
    #[must_use]
    pub const fn from_square_micrometers(um2: f64) -> Self {
        Self(um2 * 1e-12)
    }

    /// Returns the area in square metres.
    #[must_use]
    pub const fn square_meters(self) -> f64 {
        self.0
    }

    /// Returns the area in square millimetres.
    #[must_use]
    pub fn square_millimeters(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the area in square centimetres.
    #[must_use]
    pub fn square_centimeters(self) -> f64 {
        self.0 * 1e4
    }

    /// Returns the side length of a square with this area, in metres.
    ///
    /// Useful for channel-pitch estimates: a 1024-channel, 144 mm² implant
    /// has `sqrt(144/1024) ≈ 0.375 mm` per-channel pitch.
    #[must_use]
    pub fn side_length_meters(self) -> f64 {
        self.0.max(0.0).sqrt()
    }
}

impl PowerDensity {
    /// Creates a power density from W/m².
    #[must_use]
    pub const fn from_watts_per_square_meter(wm2: f64) -> Self {
        Self(wm2)
    }

    /// Creates a power density from mW/cm² — the unit the paper reports.
    #[must_use]
    pub const fn from_milliwatts_per_square_centimeter(mw_cm2: f64) -> Self {
        // 1 mW/cm² = 1e-3 W / 1e-4 m² = 10 W/m².
        Self(mw_cm2 * 10.0)
    }

    /// Returns the power density in W/m².
    #[must_use]
    pub const fn watts_per_square_meter(self) -> f64 {
        self.0
    }

    /// Returns the power density in mW/cm².
    #[must_use]
    pub fn milliwatts_per_square_centimeter(self) -> f64 {
        self.0 / 10.0
    }
}

impl Energy {
    /// Creates an energy from joules.
    #[must_use]
    pub const fn from_joules(joules: f64) -> Self {
        Self(joules)
    }

    /// Creates an energy from picojoules (the usual per-bit scale).
    #[must_use]
    pub const fn from_picojoules(picojoules: f64) -> Self {
        Self(picojoules * 1e-12)
    }

    /// Returns the energy in joules.
    #[must_use]
    pub const fn joules(self) -> f64 {
        self.0
    }

    /// Returns the energy in picojoules.
    #[must_use]
    pub fn picojoules(self) -> f64 {
        self.0 * 1e12
    }
}

impl TimeSpan {
    /// Creates a time span from seconds.
    #[must_use]
    pub const fn from_seconds(seconds: f64) -> Self {
        Self(seconds)
    }

    /// Creates a time span from milliseconds.
    #[must_use]
    pub const fn from_milliseconds(ms: f64) -> Self {
        Self(ms * 1e-3)
    }

    /// Creates a time span from microseconds.
    #[must_use]
    pub const fn from_microseconds(us: f64) -> Self {
        Self(us * 1e-6)
    }

    /// Creates a time span from nanoseconds.
    #[must_use]
    pub const fn from_nanoseconds(ns: f64) -> Self {
        Self(ns * 1e-9)
    }

    /// Returns the time span in seconds.
    #[must_use]
    pub const fn seconds(self) -> f64 {
        self.0
    }

    /// Returns the time span in microseconds.
    #[must_use]
    pub fn microseconds(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the time span in nanoseconds.
    #[must_use]
    pub fn nanoseconds(self) -> f64 {
        self.0 * 1e9
    }
}

impl Frequency {
    /// Creates a frequency from hertz.
    #[must_use]
    pub const fn from_hertz(hz: f64) -> Self {
        Self(hz)
    }

    /// Creates a frequency from kilohertz (the usual NI sampling scale).
    #[must_use]
    pub const fn from_kilohertz(khz: f64) -> Self {
        Self(khz * 1e3)
    }

    /// Creates a frequency from megahertz (the usual clock scale).
    #[must_use]
    pub const fn from_megahertz(mhz: f64) -> Self {
        Self(mhz * 1e6)
    }

    /// Returns the frequency in hertz.
    #[must_use]
    pub const fn hertz(self) -> f64 {
        self.0
    }

    /// Returns the frequency in kilohertz.
    #[must_use]
    pub fn kilohertz(self) -> f64 {
        self.0 * 1e-3
    }

    /// Returns the period `1/f`.
    ///
    /// A zero frequency yields an infinite period.
    #[must_use]
    pub fn period(self) -> TimeSpan {
        TimeSpan(1.0 / self.0)
    }
}

impl DataRate {
    /// Creates a data rate from bits per second.
    #[must_use]
    pub const fn from_bits_per_second(bps: f64) -> Self {
        Self(bps)
    }

    /// Creates a data rate from kilobits per second.
    #[must_use]
    pub const fn from_kilobits_per_second(kbps: f64) -> Self {
        Self(kbps * 1e3)
    }

    /// Creates a data rate from megabits per second.
    #[must_use]
    pub const fn from_megabits_per_second(mbps: f64) -> Self {
        Self(mbps * 1e6)
    }

    /// Returns the data rate in bits per second.
    #[must_use]
    pub const fn bits_per_second(self) -> f64 {
        self.0
    }

    /// Returns the data rate in megabits per second.
    #[must_use]
    pub fn megabits_per_second(self) -> f64 {
        self.0 * 1e-6
    }
}

// ---------------------------------------------------------------------------
// Cross-unit operations (only the physically meaningful ones).
// ---------------------------------------------------------------------------

/// `Power / Area = PowerDensity` — the safety metric of Section 3.2.
impl Div<Area> for Power {
    type Output = PowerDensity;
    fn div(self, rhs: Area) -> PowerDensity {
        PowerDensity(self.0 / rhs.0)
    }
}

/// `PowerDensity × Area = Power` — e.g., the power budget of Eq. (3).
impl Mul<Area> for PowerDensity {
    type Output = Power;
    fn mul(self, rhs: Area) -> Power {
        Power(self.0 * rhs.0)
    }
}

/// `Area × PowerDensity = Power` (commuted form).
impl Mul<PowerDensity> for Area {
    type Output = Power;
    fn mul(self, rhs: PowerDensity) -> Power {
        Power(self.0 * rhs.0)
    }
}

/// `Power / PowerDensity = Area` — minimum area for a given power at the limit.
impl Div<PowerDensity> for Power {
    type Output = Area;
    fn div(self, rhs: PowerDensity) -> Area {
        Area(self.0 / rhs.0)
    }
}

/// `DataRate × Energy(per bit) = Power` — Eq. (9): `P_comm = T_comm · E_b`.
impl Mul<Energy> for DataRate {
    type Output = Power;
    fn mul(self, rhs: Energy) -> Power {
        Power(self.0 * rhs.0)
    }
}

/// `Energy(per bit) × DataRate = Power` (commuted form).
impl Mul<DataRate> for Energy {
    type Output = Power;
    fn mul(self, rhs: DataRate) -> Power {
        Power(self.0 * rhs.0)
    }
}

/// `Power / DataRate = Energy` per bit — recover E_b from a link power.
impl Div<DataRate> for Power {
    type Output = Energy;
    fn div(self, rhs: DataRate) -> Energy {
        Energy(self.0 / rhs.0)
    }
}

/// `Power × TimeSpan = Energy`.
impl Mul<TimeSpan> for Power {
    type Output = Energy;
    fn mul(self, rhs: TimeSpan) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

/// `TimeSpan × Power = Energy` (commuted form).
impl Mul<Power> for TimeSpan {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

/// `Energy / TimeSpan = Power`.
impl Div<TimeSpan> for Energy {
    type Output = Power;
    fn div(self, rhs: TimeSpan) -> Power {
        Power(self.0 / rhs.0)
    }
}

/// `Energy / Power = TimeSpan`.
impl Div<Power> for Energy {
    type Output = TimeSpan;
    fn div(self, rhs: Power) -> TimeSpan {
        TimeSpan(self.0 / rhs.0)
    }
}

/// `Energy × Frequency = Power` — e.g., per-sample energy at a sampling rate.
impl Mul<Frequency> for Energy {
    type Output = Power;
    fn mul(self, rhs: Frequency) -> Power {
        Power(self.0 * rhs.0)
    }
}

/// `Frequency × Energy = Power` (commuted form).
impl Mul<Energy> for Frequency {
    type Output = Power;
    fn mul(self, rhs: Energy) -> Power {
        Power(self.0 * rhs.0)
    }
}

/// `DataRate × TimeSpan = f64` bits transferred.
impl Mul<TimeSpan> for DataRate {
    type Output = f64;
    fn mul(self, rhs: TimeSpan) -> f64 {
        self.0 * rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_conversions_round_trip() {
        let p = Power::from_milliwatts(38.88);
        assert!((p.watts() - 0.03888).abs() < 1e-12);
        assert!((p.milliwatts() - 38.88).abs() < 1e-9);
        assert!((p.microwatts() - 38_880.0).abs() < 1e-6);
    }

    #[test]
    fn area_conversions_round_trip() {
        let a = Area::from_square_millimeters(144.0);
        assert!((a.square_centimeters() - 1.44).abs() < 1e-12);
        assert!((a.square_meters() - 1.44e-4).abs() < 1e-16);
        let b = Area::from_square_centimeters(1.44);
        assert!((a - b).abs().square_meters() < 1e-15);
    }

    #[test]
    fn power_density_unit_is_ten_watts_per_square_meter() {
        let d = PowerDensity::from_milliwatts_per_square_centimeter(40.0);
        assert!((d.watts_per_square_meter() - 400.0).abs() < 1e-12);
        assert!((d.milliwatts_per_square_centimeter() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn density_times_area_is_power() {
        // BISC-like: 27 mW/cm² × 1.44 cm² = 38.88 mW.
        let p = PowerDensity::from_milliwatts_per_square_centimeter(27.0)
            * Area::from_square_millimeters(144.0);
        assert!((p.milliwatts() - 38.88).abs() < 1e-9);
    }

    #[test]
    fn power_over_area_is_density() {
        let d = Power::from_milliwatts(15.0) / Area::from_square_millimeters(1.0);
        assert!((d.milliwatts_per_square_centimeter() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn rate_times_energy_per_bit_is_power() {
        // Paper's OOK example: 82 Mbps at 50 pJ/bit → 4.1 mW.
        let p = DataRate::from_megabits_per_second(82.0) * Energy::from_picojoules(50.0);
        assert!((p.milliwatts() - 4.1).abs() < 1e-9);
    }

    #[test]
    fn energy_per_bit_recovered_from_power() {
        let eb = Power::from_milliwatts(4.1) / DataRate::from_megabits_per_second(82.0);
        assert!((eb.picojoules() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_period_inverse() {
        let f = Frequency::from_kilohertz(8.0);
        assert!((f.period().microseconds() - 125.0).abs() < 1e-9);
    }

    #[test]
    fn power_time_energy_cycle() {
        let e = Power::from_milliwatts(1.0) * TimeSpan::from_seconds(2.0);
        assert!((e.joules() - 2e-3).abs() < 1e-15);
        let p = e / TimeSpan::from_seconds(2.0);
        assert!((p.milliwatts() - 1.0).abs() < 1e-12);
        let t = e / Power::from_milliwatts(1.0);
        assert!((t.seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_ops_behave() {
        let a = Power::from_milliwatts(3.0);
        let b = Power::from_milliwatts(1.5);
        assert!(((a + b).milliwatts() - 4.5).abs() < 1e-12);
        assert!(((a - b).milliwatts() - 1.5).abs() < 1e-12);
        assert!(((a * 2.0).milliwatts() - 6.0).abs() < 1e-12);
        assert!(((2.0 * a).milliwatts() - 6.0).abs() < 1e-12);
        assert!(((a / 2.0).milliwatts() - 1.5).abs() < 1e-12);
        assert!((a / b - 2.0).abs() < 1e-12);
        assert!(((-a).milliwatts() + 3.0).abs() < 1e-12);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = [
            Power::from_milliwatts(1.0),
            Power::from_milliwatts(2.0),
            Power::from_milliwatts(3.0),
        ];
        let total: Power = parts.iter().sum();
        assert!((total.milliwatts() - 6.0).abs() < 1e-12);
        let total2: Power = parts.into_iter().sum();
        assert!((total2.milliwatts() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn ordering_and_min_max() {
        let small = Area::from_square_millimeters(1.0);
        let big = Area::from_square_millimeters(2.0);
        assert!(small < big);
        assert_eq!(small.min(big), small);
        assert_eq!(small.max(big), big);
        assert_eq!(big.clamp(Area::ZERO, small), small);
    }

    #[test]
    fn display_includes_unit_and_precision() {
        let p = Power::from_watts(0.5);
        assert_eq!(format!("{p}"), "0.5 W");
        assert_eq!(format!("{p:.2}"), "0.50 W");
        assert_eq!(format!("{}", Area::ZERO), "0 m^2");
    }

    #[test]
    fn data_rate_times_time_is_bits() {
        let bits = DataRate::from_megabits_per_second(82.0) * TimeSpan::from_seconds(1.0);
        assert!((bits - 82e6).abs() < 1e-3);
    }

    #[test]
    fn side_length_of_area() {
        let a = Area::from_square_millimeters(144.0);
        assert!((a.side_length_meters() - 0.012).abs() < 1e-12);
    }
}
