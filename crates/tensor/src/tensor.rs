//! The [`Tensor`] type: reference-counted storage plus autograd metadata.

use std::cell::{Cell, Ref, RefCell, RefMut};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::grad::{self, Node};
use crate::memory::Buffer;
use crate::shape::Shape;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) struct Inner {
    pub(crate) id: u64,
    pub(crate) shape: Shape,
    pub(crate) data: RefCell<Buffer>,
    pub(crate) grad: RefCell<Option<Buffer>>,
    pub(crate) requires_grad: Cell<bool>,
    pub(crate) node: RefCell<Option<Node>>,
}

/// A dense f32 tensor. Cheap to clone (shares storage and autograd state).
#[derive(Clone)]
pub struct Tensor {
    pub(crate) inner: Rc<Inner>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    pub(crate) fn from_buffer(buffer: Buffer, shape: Shape) -> Self {
        assert_eq!(
            buffer.len(),
            shape.numel(),
            "buffer length {} does not match shape {} ({} elements)",
            buffer.len(),
            shape,
            shape.numel()
        );
        Tensor {
            inner: Rc::new(Inner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                shape,
                data: RefCell::new(buffer),
                grad: RefCell::new(None),
                requires_grad: Cell::new(false),
                node: RefCell::new(None),
            }),
        }
    }

    /// Tensor from an owned vector and a dim slice.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        Tensor::from_buffer(Buffer::from_vec(data), Shape::new(dims))
    }

    /// All-zeros tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor::from_buffer(Buffer::zeros(shape.numel()), shape)
    }

    /// All-ones tensor.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor::from_buffer(Buffer::from_vec(vec![value; shape.numel()]), shape)
    }

    /// Rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor::from_buffer(Buffer::from_vec(vec![value]), Shape::scalar())
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Tensor::from_vec(data, &[n, n])
    }

    /// `[0, 1, ..., n-1]` as f32.
    pub fn arange(n: usize) -> Self {
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), &[n])
    }

    /// Mark this tensor as a trainable leaf (builder style).
    pub fn requires_grad(self) -> Self {
        self.inner.requires_grad.set(true);
        self
    }

    /// Enable/disable gradient tracking on an existing tensor.
    pub fn set_requires_grad(&self, value: bool) {
        self.inner.requires_grad.set(value);
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Unique id (useful for debugging graphs).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    pub fn shape(&self) -> &Shape {
        &self.inner.shape
    }

    pub fn dims(&self) -> &[usize] {
        self.inner.shape.dims()
    }

    pub fn numel(&self) -> usize {
        self.inner.shape.numel()
    }

    pub fn rank(&self) -> usize {
        self.inner.shape.rank()
    }

    pub fn requires_grad_enabled(&self) -> bool {
        self.inner.requires_grad.get()
    }

    /// Borrow the raw data.
    pub fn data(&self) -> Ref<'_, Buffer> {
        self.inner.data.borrow()
    }

    /// Mutably borrow the raw data (used by optimisers; does not invalidate
    /// autograd history — callers must only do this on leaves).
    pub fn data_mut(&self) -> RefMut<'_, Buffer> {
        self.inner.data.borrow_mut()
    }

    /// Copy the data out as a `Vec<f32>`.
    pub fn to_vec(&self) -> Vec<f32> {
        self.inner.data.borrow().as_slice().to_vec()
    }

    /// The single value of a one-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on tensor with {} elements", self.numel());
        self.inner.data.borrow()[0]
    }

    /// Element at flat index `i`.
    pub fn at(&self, i: usize) -> f32 {
        self.inner.data.borrow()[i]
    }

    /// Element of a rank-2 tensor at `(row, col)`.
    pub fn at2(&self, row: usize, col: usize) -> f32 {
        let (_, cols) = self.shape().as_matrix();
        self.inner.data.borrow()[row * cols + col]
    }

    // ------------------------------------------------------------------
    // Gradients
    // ------------------------------------------------------------------

    /// The accumulated gradient, if any.
    pub fn grad(&self) -> Option<Vec<f32>> {
        self.inner.grad.borrow().as_ref().map(|b| b.as_slice().to_vec())
    }

    /// Clear the gradient buffer.
    pub fn zero_grad(&self) {
        *self.inner.grad.borrow_mut() = None;
    }

    /// Overwrite this tensor's gradient buffer with `g`. Public so fault
    /// harnesses and tests can plant specific gradients (e.g. NaN
    /// poisoning); the autograd engine itself accumulates instead.
    pub fn set_grad(&self, g: &[f32]) {
        self.zero_grad();
        self.accumulate_grad(g);
    }

    /// Borrow the gradient buffer in place (optimisers read it without a
    /// copy).
    pub(crate) fn grad_ref(&self) -> Option<Ref<'_, [f32]>> {
        Ref::filter_map(self.inner.grad.borrow(), |g| g.as_deref()).ok()
    }

    /// Mutably borrow an existing gradient buffer (in-place clipping).
    pub(crate) fn grad_mut(&self) -> Option<RefMut<'_, [f32]>> {
        RefMut::filter_map(self.inner.grad.borrow_mut(), |g| g.as_deref_mut()).ok()
    }

    /// Run `f` on this tensor's gradient buffer, allocated zero-filled on
    /// first touch. Backward closures that reach only part of a parent
    /// (row gathers, slices, segment sums) add into the rows or columns
    /// they touched here instead of adding a parent-sized scratch buffer.
    pub(crate) fn with_grad_mut<T>(&self, f: impl FnOnce(&mut [f32]) -> T) -> T {
        let mut slot = self.inner.grad.borrow_mut();
        f(slot.get_or_insert_with(|| Buffer::zeros(self.numel())))
    }

    /// Accumulate `g` into this tensor's gradient buffer.
    pub(crate) fn accumulate_grad(&self, g: &[f32]) {
        assert_eq!(g.len(), self.numel(), "gradient length mismatch");
        let mut slot = self.inner.grad.borrow_mut();
        match slot.as_mut() {
            Some(existing) => {
                for (dst, src) in existing.as_mut_slice().iter_mut().zip(g) {
                    *dst += *src;
                }
            }
            None => *slot = Some(Buffer::from_vec(g.to_vec())),
        }
    }

    /// Run reverse-mode autodiff from this scalar tensor.
    ///
    /// Panics if the tensor has more than one element; use
    /// [`Tensor::backward_with`] to seed a non-scalar output.
    pub fn backward(&self) {
        assert_eq!(self.numel(), 1, "backward() requires a scalar; use backward_with");
        self.backward_with(&[1.0]);
    }

    /// Run reverse-mode autodiff with an explicit output gradient.
    pub fn backward_with(&self, seed: &[f32]) {
        grad::run_backward(self, seed);
    }

    /// A new tensor sharing this tensor's storage but detached from the
    /// autograd graph.
    pub fn detach(&self) -> Tensor {
        let t = Tensor::from_buffer(Buffer::from_vec(self.to_vec()), *self.shape());
        t
    }

    /// Whether an autograd node is attached (i.e. this is a non-leaf).
    pub fn has_grad_fn(&self) -> bool {
        self.inner.node.borrow().is_some()
    }

    pub(crate) fn set_node(&self, node: Node) {
        *self.inner.node.borrow_mut() = Some(node);
    }

    /// Whether backward should flow through this tensor: it is a
    /// gradient-requiring leaf or has a recorded grad fn.
    pub(crate) fn tracks_grad(&self) -> bool {
        self.inner.requires_grad.get() || self.has_grad_fn()
    }

    // ------------------------------------------------------------------
    // In-place maintenance (leaves only)
    // ------------------------------------------------------------------

    /// Overwrite this tensor's data with `src` (same length required).
    pub fn copy_from_slice(&self, src: &[f32]) {
        let mut data = self.inner.data.borrow_mut();
        assert_eq!(data.len(), src.len(), "copy_from_slice length mismatch");
        data.as_mut_slice().copy_from_slice(src);
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let data = self.inner.data.borrow();
        let preview: Vec<f32> = data.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor(id={}, shape={}, requires_grad={}, data≈{:?}{})",
            self.inner.id,
            self.inner.shape,
            self.inner.requires_grad.get(),
            preview,
            if data.len() > 8 { ", …" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_shapes() {
        let t = Tensor::zeros(&[3, 4]);
        assert_eq!(t.numel(), 12);
        assert_eq!(t.dims(), &[3, 4]);
        assert!(t.to_vec().iter().all(|&x| x == 0.0));

        let e = Tensor::eye(3);
        assert_eq!(e.at2(0, 0), 1.0);
        assert_eq!(e.at2(0, 1), 0.0);
        assert_eq!(e.at2(2, 2), 1.0);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }

    #[test]
    #[should_panic(expected = "item()")]
    fn item_on_vector_panics() {
        Tensor::zeros(&[2]).item();
    }

    #[test]
    fn grad_accumulation_adds() {
        let t = Tensor::zeros(&[2]).requires_grad();
        t.accumulate_grad(&[1.0, 2.0]);
        t.accumulate_grad(&[0.5, 0.5]);
        assert_eq!(t.grad().unwrap(), vec![1.5, 2.5]);
        t.zero_grad();
        assert!(t.grad().is_none());
    }

    #[test]
    fn detach_breaks_history() {
        let a = Tensor::ones(&[2]).requires_grad();
        let b = a.mul_scalar(3.0);
        assert!(b.has_grad_fn());
        let d = b.detach();
        assert!(!d.has_grad_fn());
        assert_eq!(d.to_vec(), vec![3.0, 3.0]);
    }

    #[test]
    fn arange_values() {
        assert_eq!(Tensor::arange(4).to_vec(), vec![0.0, 1.0, 2.0, 3.0]);
    }
}
