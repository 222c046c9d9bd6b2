//! Three-dimensional vectors for orbital geometry.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-vector of `f64` components, used for positions and velocities in
/// kilometers or meters depending on context (each API documents its units).
///
/// # Example
///
/// ```
/// use kodan_cote::vec3::Vec3;
/// let a = Vec3::new(1.0, 0.0, 0.0);
/// let b = Vec3::new(0.0, 1.0, 0.0);
/// assert_eq!(a.dot(b), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from components.
    pub fn new(x: f64, y: f64, z: f64) -> Vec3 {
        Vec3 { x, y, z }
    }

    /// Dot product.
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Rotates this vector about the Z axis by `angle` radians
    /// (counter-clockwise looking down +Z).
    pub fn rotated_z(self, angle: f64) -> Vec3 {
        let (s, c) = angle.sin_cos();
        Vec3 {
            x: c * self.x - s * self.y,
            y: s * self.x + c * self.y,
            z: self.z,
        }
    }

    /// Rotates this vector about the X axis by `angle` radians.
    pub fn rotated_x(self, angle: f64) -> Vec3 {
        let (s, c) = angle.sin_cos();
        Vec3 {
            x: self.x,
            y: c * self.y - s * self.z,
            z: s * self.y + c * self.z,
        }
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3}, {:.3})", self.x, self.y, self.z)
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_of_unit_axes() {
        assert_eq!(Vec3::new(1.0, 0.0, 0.0).norm(), 1.0);
        assert_eq!(Vec3::new(0.0, 3.0, 4.0).norm(), 5.0);
    }

    #[test]
    fn rotation_about_z_quarter_turn() {
        let v = Vec3::new(1.0, 0.0, 5.0).rotated_z(std::f64::consts::FRAC_PI_2);
        assert!((v.x - 0.0).abs() < 1e-12);
        assert!((v.y - 1.0).abs() < 1e-12);
        assert_eq!(v.z, 5.0);
    }

    #[test]
    fn rotation_about_x_quarter_turn() {
        let v = Vec3::new(7.0, 1.0, 0.0).rotated_x(std::f64::consts::FRAC_PI_2);
        assert_eq!(v.x, 7.0);
        assert!((v.y - 0.0).abs() < 1e-12);
        assert!((v.z - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 0.5, 2.0);
        assert_eq!(a + b - b, a);
        assert_eq!(a * 2.0, a + a);
        assert_eq!(2.0 * a, a + a);
        assert_eq!(a / 1.0, a);
        assert_eq!(-(-a), a);
        assert_eq!((a - a).norm(), 0.0);
    }
}
