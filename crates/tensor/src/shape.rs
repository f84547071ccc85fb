//! Shape bookkeeping: dimension lists, strides, and index arithmetic.

/// A tensor shape: an ordered list of dimension extents.
///
/// Kept as a thin wrapper over `Vec<usize>` so that shape utilities (strides,
/// element counts, axis normalization) have an obvious home and so that
/// error messages can render shapes consistently.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Create a shape from a slice of dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Number of dimensions (rank).
    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of extents; 1 for a scalar shape).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// The extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Convert a multi-dimensional index to a flat row-major offset.
    ///
    /// # Panics
    /// Panics if `idx` has the wrong rank or any coordinate is out of range.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.0.len(),
            "index rank {} does not match shape rank {} ({})",
            idx.len(),
            self.0.len(),
            self
        );
        // Fold from the last axis, growing the stride as it goes: no
        // stride vector is built.
        let mut off = 0;
        let mut stride = 1;
        for (axis, (&i, &d)) in idx.iter().zip(self.0.iter()).enumerate().rev() {
            assert!(
                i < d,
                "index {i} out of range for axis {axis} with extent {d} ({self})"
            );
            off += i * stride;
            stride *= d;
        }
        off
    }

    /// Normalize a possibly-negative axis spec into `0..ndim`.
    ///
    /// Accepts `-ndim..=ndim-1` like NumPy/PyTorch; `-1` is the last axis.
    ///
    /// # Panics
    /// Panics if the axis is out of range.
    pub fn normalize_axis(&self, axis: isize) -> usize {
        let n = self.0.len() as isize;
        let a = if axis < 0 { axis + n } else { axis };
        assert!(
            (0..n).contains(&a),
            "axis {axis} out of range for rank-{n} shape {self}"
        );
        a as usize
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_ndim() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.ndim(), 3);
        assert_eq!(Shape::new(&[]).numel(), 1);
    }

    #[test]
    fn offset_round_trip() {
        let s = Shape::new(&[2, 3, 4]);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let off = s.offset(&[i, j, k]);
                    assert!(off < 24);
                    assert!(seen.insert(off), "duplicate offset {off}");
                }
            }
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn offset_out_of_range_panics() {
        Shape::new(&[2, 2]).offset(&[2, 0]);
    }

    #[test]
    fn normalize_axis_accepts_negative() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.normalize_axis(-1), 2);
        assert_eq!(s.normalize_axis(-3), 0);
        assert_eq!(s.normalize_axis(1), 1);
    }

    #[test]
    #[should_panic(expected = "axis 3 out of range")]
    fn normalize_axis_rejects_large() {
        Shape::new(&[2, 3, 4]).normalize_axis(3);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Shape::new(&[2, 3])), "[2, 3]");
        assert_eq!(format!("{}", Shape::new(&[])), "[]");
    }
}
