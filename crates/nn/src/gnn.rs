//! Graph layers used by the soft-prompt generator (paper Eq. 6).
//!
//! Both layers operate on a dense feature matrix `[N, D]` plus an adjacency
//! list. [`GnnLayer`] is the plain mean-aggregation GNN the paper selects
//! for CUB/SUN; [`GraphSageLayer`] is the concat-self-and-neighbours
//! GraphSAGE variant it selects for the FB15K-derived graphs.

use cem_tensor::Tensor;
use rand::Rng;

use crate::linear::Linear;
use crate::module::{with_prefix, Module};

/// Mean-aggregate the neighbour rows of every vertex: row `i` of the result
/// is `mean_{j ∈ adj[i]} features[j]` (zero vector for isolated vertices).
///
/// Two nodes for the whole graph ([`Tensor::segment_mean_rows`]): a
/// segment sum over the adjacency lists (O(E·d) forward and backward),
/// then a per-row scale by `1/deg`, the same `x·c` forward and `g·c`
/// backward a per-vertex `mean_axis0` does.
pub fn neighbor_mean(features: &Tensor, adj: &[Vec<usize>]) -> Tensor {
    let (n, _d) = features.shape().as_matrix();
    assert_eq!(adj.len(), n, "adjacency length {} != vertex count {n}", adj.len());
    features.segment_mean_rows(adj)
}

/// A single GNN layer: `relu(W·mean(neigh) + U·self)` per vertex.
pub struct GnnLayer {
    w_neigh: Linear,
    w_self: Linear,
}

impl GnnLayer {
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        GnnLayer {
            w_neigh: Linear::new(in_dim, out_dim, rng),
            w_self: Linear::new(in_dim, out_dim, rng),
        }
    }

    /// `features [N, in] + adjacency -> [N, out]`.
    pub fn forward(&self, features: &Tensor, adj: &[Vec<usize>]) -> Tensor {
        let neigh = neighbor_mean(features, adj);
        self.w_self.forward(features).add(&self.w_neigh.forward(&neigh)).relu()
    }
}

impl Module for GnnLayer {
    fn named_params(&self) -> Vec<(String, Tensor)> {
        let mut v = with_prefix("w_neigh", self.w_neigh.named_params());
        v.extend(with_prefix("w_self", self.w_self.named_params()));
        v
    }
}

/// GraphSAGE layer: `relu(W·[self ‖ mean(neigh)])` followed by row L2
/// normalisation, per Hamilton et al.
pub struct GraphSageLayer {
    w: Linear,
}

impl GraphSageLayer {
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        GraphSageLayer { w: Linear::new(2 * in_dim, out_dim, rng) }
    }

    /// `features [N, in] + adjacency -> [N, out]` (rows L2-normalised).
    pub fn forward(&self, features: &Tensor, adj: &[Vec<usize>]) -> Tensor {
        let neigh = neighbor_mean(features, adj);
        let concat = features.concat_cols(&neigh);
        self.w.forward(&concat).relu().l2_normalize_rows()
    }
}

impl Module for GraphSageLayer {
    fn named_params(&self) -> Vec<(String, Tensor)> {
        with_prefix("w", self.w.named_params())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn neighbor_mean_averages_rows() {
        let f = Tensor::from_vec(vec![1.0, 0.0, 3.0, 0.0, 0.0, 6.0], &[3, 2]);
        let adj = vec![vec![1, 2], vec![0], vec![]];
        let m = neighbor_mean(&f, &adj);
        assert_eq!(m.dims(), &[3, 2]);
        let v = m.to_vec();
        assert_eq!(&v[0..2], &[1.5, 3.0]); // mean of rows 1,2
        assert_eq!(&v[2..4], &[1.0, 0.0]); // row 0
        assert_eq!(&v[4..6], &[0.0, 0.0]); // isolated
    }

    #[test]
    fn gnn_layer_shapes_and_grads() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = GnnLayer::new(4, 6, &mut rng);
        let f = cem_tensor::init::randn(&[3, 4], 1.0, &mut rng);
        let adj = vec![vec![1], vec![0, 2], vec![1]];
        let out = layer.forward(&f, &adj);
        assert_eq!(out.dims(), &[3, 6]);
        out.sum().backward();
        for (name, p) in layer.named_params() {
            assert!(p.grad().is_some(), "no grad for {name}");
        }
    }

    #[test]
    fn graphsage_rows_are_unit_or_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = GraphSageLayer::new(4, 8, &mut rng);
        let f = cem_tensor::init::randn(&[3, 4], 1.0, &mut rng);
        let adj = vec![vec![1, 2], vec![0], vec![0, 1]];
        let out = layer.forward(&f, &adj);
        for r in 0..3 {
            let row: Vec<f32> = (0..8).map(|c| out.at2(r, c)).collect();
            let n: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!(n < 1.0 + 1e-4, "row norm {n}");
        }
    }

    #[test]
    fn isolated_vertex_depends_only_on_self() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = GnnLayer::new(2, 2, &mut rng);
        let f1 = Tensor::from_vec(vec![1.0, 2.0, 9.0, 9.0], &[2, 2]);
        let f2 = Tensor::from_vec(vec![1.0, 2.0, -5.0, 0.0], &[2, 2]);
        let adj = vec![vec![], vec![]];
        let o1 = layer.forward(&f1, &adj);
        let o2 = layer.forward(&f2, &adj);
        // Vertex 0 isolated and identical in both inputs -> same output row.
        assert_eq!(&o1.to_vec()[0..2], &o2.to_vec()[0..2]);
    }
}
