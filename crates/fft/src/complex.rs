//! A minimal complex number type for FFT work.

/// A complex number with `f64` components.
///
/// `f64` is used inside the FFT (inputs and outputs are `f32` tensors) so
/// that Bluestein's algorithm — which multiplies by large-phase chirps —
/// stays accurate for long series.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Construct from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// A purely real complex number.
    pub fn from_re(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ}` on the unit circle.
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }
}

/// Helpers only the transform tests use.
#[cfg(test)]
impl Complex {
    /// Zero.
    pub(crate) fn zero() -> Self {
        Complex { re: 0.0, im: 0.0 }
    }

    /// Squared magnitude.
    pub(crate) fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub(crate) fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scale by a real factor.
    pub(crate) fn scale(self, s: f64) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        // (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
        assert_eq!(a * b, Complex::new(5.0, 5.0));
    }

    #[test]
    fn conj_and_norm() {
        let a = Complex::new(3.0, 4.0);
        assert_eq!(a.conj(), Complex::new(3.0, -4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        // z * conj(z) = |z|^2
        let p = a * a.conj();
        assert!((p.re - 25.0).abs() < 1e-12 && p.im.abs() < 1e-12);
    }

    #[test]
    fn cis_unit_circle() {
        use std::f64::consts::PI;
        let q = Complex::cis(PI / 2.0);
        assert!(q.re.abs() < 1e-12 && (q.im - 1.0).abs() < 1e-12);
        assert!((Complex::cis(0.3).abs() - 1.0).abs() < 1e-12);
    }
}
