//! A minimal complex-number type for the FFT.
//!
//! Only the operations the radix-2 transform needs are provided; this is not
//! a general-purpose complex library.

use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub};

/// A complex number with `f64` components.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// Zero.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };

    /// Constructs from rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// A real number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// `e^{iθ} = cos θ + i sin θ` — the FFT twiddle factor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Squared magnitude `|z|²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64 {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -1.0);
        assert_eq!(a + b, Complex64::new(4.0, 1.0));
        assert_eq!(a - b, Complex64::new(-2.0, 3.0));
        // (1+2i)(3-i) = 3 - i + 6i - 2i² = 5 + 5i
        assert_eq!(a * b, Complex64::new(5.0, 5.0));
        assert_eq!(-a, Complex64::new(-1.0, -2.0));
    }

    #[test]
    fn cis_is_unit_circle() {
        let z = Complex64::cis(std::f64::consts::FRAC_PI_2);
        assert!((z.re).abs() < EPS);
        assert!((z.im - 1.0).abs() < EPS);
        assert!((Complex64::cis(1.234).abs() - 1.0).abs() < EPS);
    }

    #[test]
    fn conj_and_norm() {
        let z = Complex64::new(3.0, 4.0);
        // z · z̄ = |z|²
        assert_eq!(z * Complex64::new(3.0, -4.0), Complex64::new(25.0, 0.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.scale(2.0), Complex64::new(6.0, 8.0));
    }

    #[test]
    fn assign_ops() {
        let mut z = Complex64::ONE;
        z += Complex64::new(0.0, 1.0);
        z *= Complex64::new(0.0, 1.0);
        // (1+i)·i = -1 + i
        assert!((z.re + 1.0).abs() < EPS);
        assert!((z.im - 1.0).abs() < EPS);
    }
}
