//! The core [`Tensor`] type: contiguous row-major `f32` storage plus a shape.

use crate::shape::Shape;

/// An N-dimensional array of `f32`, stored contiguously in row-major order.
///
/// `Tensor` is the only array type in this workspace. It is deliberately
/// plain: no strides, no views, no reference counting. Cloning copies the
/// buffer. All shape-changing operations return new tensors.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    pub(crate) data: Vec<f32>,
    pub(crate) shape: Shape,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Build a tensor from a flat buffer and a shape.
    ///
    /// # Panics
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let shape = Shape::new(shape);
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer of {} elements cannot be viewed as shape {}",
            data.len(),
            shape
        );
        Tensor { data, shape }
    }

    /// A 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor::from_vec(data.to_vec(), &[data.len()])
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor {
            data: vec![v],
            shape: Shape::new(&[]),
        }
    }

    /// All zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let shape = Shape::new(shape);
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// All ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// All elements equal to `v`.
    pub fn full(shape: &[usize], v: f32) -> Self {
        let shape = Shape::new(shape);
        Tensor {
            data: vec![v; shape.numel()],
            shape,
        }
    }

    /// Zeros with the same shape as `self`.
    pub fn zeros_like(&self) -> Self {
        Tensor {
            data: vec![0.0; self.data.len()],
            shape: self.shape.clone(),
        }
    }

    /// Ones with the same shape as `self`.
    pub fn ones_like(&self) -> Self {
        Tensor {
            data: vec![1.0; self.data.len()],
            shape: self.shape.clone(),
        }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The underlying flat buffer, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Consume the tensor, freeing its buffer and returning its [`Shape`].
    pub fn into_shape(self) -> Shape {
        self.shape
    }

    /// Dimension extents.
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Extent of axis `axis` (negative axes count from the end).
    pub fn size(&self, axis: isize) -> usize {
        self.shape.dims()[self.shape.normalize_axis(axis)]
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics on rank mismatch or out-of-range coordinates.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Set the element at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics on rank mismatch or out-of-range coordinates.
    pub fn set(&mut self, idx: &[usize], v: f32) {
        let off = self.shape.offset(idx);
        self.data[off] = v;
    }

    /// The single value of a one-element tensor (any rank).
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() requires a single-element tensor, shape is {}",
            self.shape
        );
        self.data[0]
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Maximum absolute difference to another tensor of the same shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.shape, other.shape,
            "max_abs_diff shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Assert element-wise closeness within `tol`, with a helpful message.
    ///
    /// # Panics
    /// Panics on shape mismatch or if any element differs by more than `tol`.
    pub fn assert_close(&self, other: &Tensor, tol: f32) {
        let d = self.max_abs_diff(other);
        assert!(
            d <= tol,
            "tensors differ by {d} (> tol {tol});\n  left: {:?}\n right: {:?}",
            &self.data[..self.data.len().min(8)],
            &other.data[..other.data.len().min(8)]
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at(&[1, 2]), 6.0);
    }

    #[test]
    #[should_panic(expected = "cannot be viewed as shape")]
    fn from_vec_rejects_bad_length() {
        Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).data(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).data(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 7.5).data(), &[7.5, 7.5]);
        assert_eq!(Tensor::eye(2).data(), &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(Tensor::scalar(2.0).item(), 2.0);
    }

    #[test]
    fn set_and_at() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 1], 5.0);
        assert_eq!(t.at(&[1, 1]), 5.0);
        assert_eq!(t.at(&[0, 1]), 0.0);
    }

    #[test]
    fn size_negative_axis() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.size(-1), 4);
        assert_eq!(t.size(0), 2);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[2]);
        assert!(!t.has_non_finite());
        t.set(&[0], f32::NAN);
        assert!(t.has_non_finite());
    }

    #[test]
    fn close_comparison() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[1.0, 2.001]);
        a.assert_close(&b, 1e-2);
        assert!(a.max_abs_diff(&b) > 0.0);
    }
}
