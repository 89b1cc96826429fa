//! Tiny fixed-size linear algebra for 2-D state decoders.

use crate::error::{DecodeError, Result};

/// A 2-vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// First component.
    pub x: f64,
    /// Second component.
    pub y: f64,
}

impl Vec2 {
    /// Creates a vector.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean norm.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.x.hypot(self.y)
    }
}

impl core::ops::Add for Vec2 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl core::ops::Sub for Vec2 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl core::ops::Mul<f64> for Vec2 {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self::new(self.x * rhs, self.y * rhs)
    }
}

/// A symmetric-friendly 2×2 matrix (row-major).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Mat2 {
    /// Element (0,0).
    pub a: f64,
    /// Element (0,1).
    pub b: f64,
    /// Element (1,0).
    pub c: f64,
    /// Element (1,1).
    pub d: f64,
}

impl Mat2 {
    /// Creates a matrix from row-major entries.
    #[must_use]
    pub fn new(a: f64, b: f64, c: f64, d: f64) -> Self {
        Self { a, b, c, d }
    }

    /// A scalar multiple of the identity.
    #[must_use]
    pub(crate) fn scalar(s: f64) -> Self {
        Self::new(s, 0.0, 0.0, s)
    }

    /// Matrix-vector product.
    #[must_use]
    pub(crate) fn mul_vec(&self, v: Vec2) -> Vec2 {
        Vec2::new(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)
    }

    /// Matrix-matrix product.
    #[must_use]
    pub fn mul_mat(&self, m: Mat2) -> Mat2 {
        Mat2::new(
            self.a * m.a + self.b * m.c,
            self.a * m.b + self.b * m.d,
            self.c * m.a + self.d * m.c,
            self.c * m.b + self.d * m.d,
        )
    }

    /// Determinant.
    #[must_use]
    pub fn det(&self) -> f64 {
        self.a * self.d - self.b * self.c
    }

    /// Inverse.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Singular`] when the determinant is (near)
    /// zero.
    pub fn inverse(&self) -> Result<Mat2> {
        let det = self.det();
        if det.abs() < 1e-300 || !det.is_finite() {
            return Err(DecodeError::Singular);
        }
        Ok(Mat2::new(
            self.d / det,
            -self.b / det,
            -self.c / det,
            self.a / det,
        ))
    }
}

impl core::ops::Add for Mat2 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::new(
            self.a + rhs.a,
            self.b + rhs.b,
            self.c + rhs.c,
            self.d + rhs.d,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_ops() {
        let v = Vec2::new(3.0, 4.0);
        assert!((v.norm() - 5.0).abs() < 1e-12);
        assert_eq!(v + Vec2::new(1.0, -1.0), Vec2::new(4.0, 3.0));
        assert_eq!(v - Vec2::new(1.0, -1.0), Vec2::new(2.0, 5.0));
        assert_eq!(v * 2.0, Vec2::new(6.0, 8.0));
    }

    #[test]
    fn matrix_inverse_round_trips() {
        let m = Mat2::new(2.0, 1.0, -1.0, 3.0);
        let inv = m.inverse().unwrap();
        let prod = m.mul_mat(inv);
        assert!((prod.a - 1.0).abs() < 1e-12);
        assert!((prod.d - 1.0).abs() < 1e-12);
        assert!(prod.b.abs() < 1e-12 && prod.c.abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        assert!(Mat2::new(1.0, 2.0, 2.0, 4.0).inverse().is_err());
        assert!(Mat2::new(f64::NAN, 0.0, 0.0, 1.0).inverse().is_err());
    }

    #[test]
    fn matrix_vector_and_scalar_products() {
        let m = Mat2::new(1.0, 2.0, 3.0, 4.0);
        let v = m.mul_vec(Vec2::new(1.0, 1.0));
        assert_eq!(v, Vec2::new(3.0, 7.0));
        assert_eq!(
            Mat2::scalar(2.0).mul_mat(Mat2::scalar(1.0)),
            Mat2::scalar(2.0)
        );
    }
}
