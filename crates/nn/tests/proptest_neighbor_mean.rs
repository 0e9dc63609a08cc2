//! `neighbor_mean` and the two graph layers built on it, against the
//! per-vertex chain it replaced (gather → `mean_axis0` → `stack_rows`),
//! forward and backward: outputs bit for bit, gradients bit for bit except
//! that an exact zero may change sign (the replaced chain added a dense
//! scratch buffer over every row; the segment sum adds only into the rows
//! it touched).

use cem_nn::gnn::neighbor_mean;
use cem_nn::{GnnLayer, GraphSageLayer, Module};
use cem_tensor::{init, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The per-vertex chain `neighbor_mean` replaced.
fn neighbor_mean_chain(features: &Tensor, adj: &[Vec<usize>]) -> Tensor {
    let d = features.shape().last_dim();
    let parts: Vec<Tensor> = adj
        .iter()
        .map(|nb| {
            if nb.is_empty() {
                Tensor::zeros(&[d])
            } else {
                features.gather_rows(nb).mean_axis0()
            }
        })
        .collect();
    Tensor::stack_rows(&parts)
}

fn param(layer: &impl Module, name: &str) -> Tensor {
    layer.named_params().into_iter().find(|(n, _)| n == name).expect("parameter exists").1
}

/// `Linear::forward` written out: `x·W`, then the bias row.
fn linear(layer: &impl Module, prefix: &str, x: &Tensor) -> Tensor {
    x.matmul(&param(layer, &format!("{prefix}.weight")))
        .add_row(&param(layer, &format!("{prefix}.bias")))
}

/// `GnnLayer::forward` on the replaced chain.
fn gnn_chain(layer: &GnnLayer, f: &Tensor, adj: &[Vec<usize>]) -> Tensor {
    let neigh = neighbor_mean_chain(f, adj);
    linear(layer, "w_self", f).add(&linear(layer, "w_neigh", &neigh)).relu()
}

/// `GraphSageLayer::forward` on the replaced chain.
fn sage_chain(layer: &GraphSageLayer, f: &Tensor, adj: &[Vec<usize>]) -> Tensor {
    let neigh = neighbor_mean_chain(f, adj);
    linear(layer, "w", &f.concat_cols(&neigh)).relu().l2_normalize_rows()
}

/// `got` equals `want` bit for bit or is a zero where `want` is one.
fn assert_bits(got: &[f32], want: &[f32], what: &str) -> TestCaseResult {
    prop_assert_eq!(got.len(), want.len(), "{} length", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let same = g.to_bits() == w.to_bits() || (*g == 0.0 && *w == 0.0);
        prop_assert!(
            same,
            "{what}[{i}]: got {g:?} ({:#010x}), want {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
    Ok(())
}

/// Output, feature gradient and every parameter gradient of one forward
/// and backward, with `existing` planted as the features' gradient first.
struct Pass {
    out: Vec<f32>,
    grads: Vec<(String, Vec<f32>)>,
}

fn pass(
    params: &[(String, Tensor)],
    features: &[f32],
    dims: &[usize],
    existing: Option<&[f32]>,
    seed: &[f32],
    forward: impl Fn(&Tensor) -> Tensor,
) -> Pass {
    for (_, p) in params {
        p.zero_grad();
    }
    let f = Tensor::from_vec(features.to_vec(), dims).requires_grad();
    if let Some(e) = existing {
        f.set_grad(e);
    }
    let out = forward(&f);
    out.backward_with(&seed[..out.numel()]);
    let mut grads = vec![("features".to_string(), f.grad().expect("features reached"))];
    grads.extend(params.iter().map(|(n, p)| (n.clone(), p.grad().unwrap_or_default())));
    Pass { out: out.to_vec(), grads }
}

fn assert_same(got: &Pass, want: &Pass) -> TestCaseResult {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&got.out), bits(&want.out), "forward output");
    for ((name, g), (_, w)) in got.grads.iter().zip(&want.grads) {
        assert_bits(g, w, name)?;
    }
    Ok(())
}

/// Adjacency over `n` vertices from raw picks: empty lists, self loops and
/// repeated neighbours all occur.
fn adjacency(n: usize, raw: &[Vec<usize>]) -> Vec<Vec<usize>> {
    (0..n)
        .map(|i| raw.get(i).map_or_else(Vec::new, |nb| nb.iter().map(|p| p % n).collect()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn neighbor_mean_matches_the_per_vertex_chain(
        n in 1usize..8,
        d in 1usize..6,
        raw in prop::collection::vec(prop::collection::vec(0usize..1000, 0..5), 0..8),
        seed_raw in prop::collection::vec(-2.0f32..2.0, 2 * 8 * 6),
        first_touch in 0u8..2,
        rng_seed in 0u64..1000,
    ) {
        let adj = adjacency(n, &raw);
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let features = init::randn(&[n, d], 1.0, &mut rng).to_vec();
        let existing = (first_touch == 0).then(|| init::randn(&[n, d], 1.0, &mut rng).to_vec());
        // A second consumer of the source beside the aggregation.
        let run = |mean: fn(&Tensor, &[Vec<usize>]) -> Tensor| {
            pass(&[], &features, &[n, d], existing.as_deref(), &seed_raw, |f| {
                Tensor::concat_rows(&[mean(f, &adj), f.mul_scalar(0.5)])
            })
        };
        assert_same(&run(neighbor_mean), &run(neighbor_mean_chain))?;
    }

    #[test]
    fn gnn_layer_matches_the_per_vertex_chain(
        n in 1usize..8,
        d in 1usize..6,
        out_dim in 1usize..6,
        raw in prop::collection::vec(prop::collection::vec(0usize..1000, 0..5), 0..8),
        seed_raw in prop::collection::vec(-2.0f32..2.0, 8 * 6),
        rng_seed in 0u64..1000,
    ) {
        let adj = adjacency(n, &raw);
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let layer = GnnLayer::new(d, out_dim, &mut rng);
        let features = init::randn(&[n, d], 1.0, &mut rng).to_vec();
        let params = layer.named_params();
        let got = pass(&params, &features, &[n, d], None, &seed_raw, |f| layer.forward(f, &adj));
        let want = pass(&params, &features, &[n, d], None, &seed_raw, |f| gnn_chain(&layer, f, &adj));
        assert_same(&got, &want)?;
    }

    #[test]
    fn graphsage_layer_matches_the_per_vertex_chain(
        n in 1usize..8,
        d in 1usize..6,
        out_dim in 1usize..6,
        raw in prop::collection::vec(prop::collection::vec(0usize..1000, 0..5), 0..8),
        seed_raw in prop::collection::vec(-2.0f32..2.0, 8 * 6),
        rng_seed in 0u64..1000,
    ) {
        let adj = adjacency(n, &raw);
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let layer = GraphSageLayer::new(d, out_dim, &mut rng);
        let features = init::randn(&[n, d], 1.0, &mut rng).to_vec();
        let params = layer.named_params();
        let got = pass(&params, &features, &[n, d], None, &seed_raw, |f| layer.forward(f, &adj));
        let want = pass(&params, &features, &[n, d], None, &seed_raw, |f| sage_chain(&layer, f, &adj));
        assert_same(&got, &want)?;
    }
}
