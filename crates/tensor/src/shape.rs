//! Tensor shapes and index arithmetic.
//!
//! Shapes are dense row-major. The workspace only ever needs ranks 0–3
//! (scalars, vectors, matrices, and batched matrices for attention), so the
//! dims live in a small fixed-capacity array instead of a `Vec`.

/// Maximum supported rank.
pub const MAX_RANK: usize = 4;

/// A row-major tensor shape of rank ≤ [`MAX_RANK`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Build a shape from a dim slice. Panics if `dims.len() > MAX_RANK`.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "rank {} exceeds MAX_RANK {}",
            dims.len(),
            MAX_RANK
        );
        let mut arr = [1usize; MAX_RANK];
        arr[..dims.len()].copy_from_slice(dims);
        Shape { dims: arr, rank: dims.len() }
    }

    /// Scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Shape { dims: [1; MAX_RANK], rank: 0 }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Dims as a slice of length `rank()`.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Dim at `axis`; panics when out of range.
    pub fn dim(&self, axis: usize) -> usize {
        assert!(axis < self.rank, "axis {axis} out of range for rank {}", self.rank);
        self.dims[axis]
    }

    /// Total number of elements (0 when any axis has length 0, 1 for a
    /// scalar).
    pub fn numel(&self) -> usize {
        self.dims[..self.rank].iter().product()
    }

    /// Row-major strides (in elements).
    pub fn strides(&self) -> [usize; MAX_RANK] {
        let mut strides = [1usize; MAX_RANK];
        if self.rank > 0 {
            for axis in (0..self.rank - 1).rev() {
                strides[axis] = strides[axis + 1] * self.dims[axis + 1];
            }
        }
        strides
    }

    /// Interpret as a matrix `[rows, cols]`. Rank-1 tensors are treated as a
    /// single row; panics on rank > 2.
    pub fn as_matrix(&self) -> (usize, usize) {
        match self.rank {
            0 => (1, 1),
            1 => (1, self.dims[0]),
            2 => (self.dims[0], self.dims[1]),
            r => panic!("as_matrix on rank-{r} tensor"),
        }
    }

    /// Size of the trailing axis (1 for scalars).
    pub fn last_dim(&self) -> usize {
        if self.rank == 0 {
            1
        } else {
            self.dims[self.rank - 1]
        }
    }

    /// Number of "rows": the product of every axis but the last (1 for
    /// scalars and vectors), so a zero-length last axis still counts them.
    pub fn leading(&self) -> usize {
        self.dims[..self.rank.saturating_sub(1)].iter().product()
    }

    /// True when both shapes have identical dims (rank-sensitive).
    pub fn same_as(&self, other: &Shape) -> bool {
        self.dims() == other.dims()
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.dims())
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_dims() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.dims(), &[2, 3, 4]);
        assert_eq!(s.dim(1), 3);
    }

    #[test]
    fn zero_length_axes_hold_no_elements() {
        let s = Shape::new(&[3, 0]);
        assert_eq!(s.numel(), 0);
        assert_eq!(s.leading(), 3);
        assert_eq!(Shape::new(&[0, 4]).numel(), 0);
        assert_eq!(Shape::new(&[0, 4]).leading(), 0);
        assert_eq!(Shape::new(&[0]).leading(), 1);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.last_dim(), 1);
        assert_eq!(s.leading(), 1);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        let st = s.strides();
        assert_eq!(&st[..3], &[12, 4, 1]);
    }

    #[test]
    fn matrix_views() {
        assert_eq!(Shape::new(&[5]).as_matrix(), (1, 5));
        assert_eq!(Shape::new(&[2, 7]).as_matrix(), (2, 7));
        let s = Shape::new(&[6, 8]);
        assert_eq!(s.leading(), 6);
        assert_eq!(s.last_dim(), 8);
    }

    #[test]
    #[should_panic(expected = "axis")]
    fn dim_out_of_range_panics() {
        Shape::new(&[2]).dim(1);
    }
}
