//! Soft prompt `f_pro^s` (paper Eq. 6–7 and Figure 4b).
//!
//! Every graph vertex owns a trainable structural embedding, initialised
//! from the pre-trained LM's token embeddings of its label (the paper
//! initialises from BERT/RoBERTa; our stand-in is the pre-trained CLIP
//! token table). A graph aggregator (GNN or GraphSAGE, per the paper's
//! per-dataset choice) turns those into structure-aware features `h(v)`;
//! the prompt is
//!
//! `f_pro^s(v) = α·h(v) + (1−α)·Σ_{v_j ∈ N(v)} h(v_j)`           (Eq. 6)
//!
//! and enters the text encoder as an extra input token
//!
//! `h^l(v) = ReLU(W·(h(l_v) ⊕ f_pro^s(v)))`                      (Eq. 7)
//!
//! spliced between `[CLS]` and the label tokens.

use cem_clip::{TextEncoder, Tokenizer};
use cem_graph::Graph;
use cem_nn::{GnnLayer, GraphSageLayer, Linear, Module};
use cem_tensor::{no_grad, Tensor};
use rand::Rng;

use crate::config::SoftBackend;

enum Backend {
    Gnn(GnnLayer),
    Sage(GraphSageLayer),
}

/// Trainable soft prompt state over an entire graph.
pub struct SoftPromptGenerator {
    /// `[N, d_model]` trainable per-vertex base embeddings.
    base: Tensor,
    backend: Backend,
    /// Residual gate on the aggregator output: `h = base + gate·GNN(base)`.
    /// Initialised small so the prompt starts as a blend of *pre-trained*
    /// token embeddings (on-manifold for the frozen text tower) and the
    /// randomly-initialised aggregator fades in through training.
    gate: Tensor,
    /// Eq. 7's `W`: `2·d_model → d_model`.
    w: Linear,
    alpha: f32,
    adj: Vec<Vec<usize>>,
}

impl SoftPromptGenerator {
    /// Initialise from a graph and the pre-trained text tower. Every vertex
    /// base embedding is the mean of its label's token embeddings (zero for
    /// an empty label).
    pub fn new<R: Rng>(
        graph: &Graph,
        text: &TextEncoder,
        tokenizer: &Tokenizer,
        backend: SoftBackend,
        alpha: f32,
        rng: &mut R,
    ) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        let d = text.d_model();
        let labels: Vec<Vec<usize>> =
            graph.vertices().map(|v| tokenizer.tokenize(graph.vertex_label(v))).collect();
        let base = no_grad(|| text.token_embedding_table().segment_mean_rows(&labels))
            .detach()
            .requires_grad();

        let backend = match backend {
            SoftBackend::Gnn => Backend::Gnn(GnnLayer::new(d, d, rng)),
            SoftBackend::GraphSage => Backend::Sage(GraphSageLayer::new(d, d, rng)),
        };

        // Eq. 7's W starts as [I; I]: the injected token begins as
        // `relu(h(l_v) + f_pro^s(v))` — a rectified blend of pre-trained
        // embeddings — instead of a random projection the frozen tower has
        // never seen. Training is free to move it anywhere.
        let w = Linear::new(2 * d, d, rng);
        {
            let mut data = w.weight().data_mut();
            let slice = data.as_mut_slice();
            slice.fill(0.0);
            for i in 0..d {
                slice[i * d + i] = 1.0; // top half: label mean
                slice[(d + i) * d + i] = 1.0; // bottom half: prompt
            }
        }

        SoftPromptGenerator {
            base,
            backend,
            gate: Tensor::scalar(0.05).requires_grad(),
            w,
            alpha,
            adj: graph.adjacency(),
        }
    }

    /// Structure-aware features `h` for all vertices: `[N, d_model]` —
    /// pre-trained base embeddings plus the gated aggregator residual.
    fn structural_features(&self) -> Tensor {
        let aggregated = match &self.backend {
            Backend::Gnn(layer) => layer.forward(&self.base, &self.adj),
            Backend::Sage(layer) => layer.forward(&self.base, &self.adj),
        };
        self.base.add(&aggregated.mul_scalar_tensor(&self.gate))
    }

    /// Eq. 6 for a batch of graph-vertex indices: `[B, d_model]`.
    pub fn prompts_for(&self, vertex_ids: &[usize]) -> Tensor {
        let h = self.structural_features();
        let own = h.gather_rows(vertex_ids).mul_scalar(self.alpha);
        let segments: Vec<Vec<usize>> = vertex_ids.iter().map(|&v| self.adj[v].clone()).collect();
        let neigh = h.segment_sum_rows(&segments).mul_scalar(1.0 - self.alpha);
        own.add(&neigh)
    }

    /// Eq. 7: combine the label representation with the soft prompt into
    /// the injected input token. `label_means` is `[B, d_model]` (mean label
    /// token embedding per batch element), `prompts` is `[B, d_model]`.
    pub fn input_tokens(&self, label_means: &Tensor, prompts: &Tensor) -> Tensor {
        self.w.forward(&label_means.concat_cols(prompts)).relu()
    }

    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }
}

impl Module for SoftPromptGenerator {
    fn named_params(&self) -> Vec<(String, Tensor)> {
        let mut v = vec![("base".to_string(), self.base.clone()), ("gate".to_string(), self.gate.clone())];
        match &self.backend {
            Backend::Gnn(layer) => v.extend(cem_nn::module::with_prefix("gnn", layer.named_params())),
            Backend::Sage(layer) => v.extend(cem_nn::module::with_prefix("sage", layer.named_params())),
        }
        v.extend(cem_nn::module::with_prefix("w", self.w.named_params()));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cem_clip::text_encoder::TextEncoderConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(backend: SoftBackend) -> (Graph, TextEncoder, Tokenizer, SoftPromptGenerator) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut g = Graph::new();
        let a = g.add_vertex("white bird");
        let b = g.add_vertex("white");
        let c = g.add_vertex("long-wings");
        g.add_edge(a, b, "has color");
        g.add_edge(a, c, "has wings");
        let tokenizer = Tokenizer::build(["white bird long-wings has color wings"]);
        let text = TextEncoder::new(
            TextEncoderConfig {
                vocab_size: tokenizer.vocab_size(),
                d_model: 16,
                heads: 2,
                layers: 1,
                ffn_hidden: 32,
                max_len: 16,
                embed_dim: 8,
            },
            &mut rng,
        );
        let gen = SoftPromptGenerator::new(&g, &text, &tokenizer, backend, 0.5, &mut rng);
        (g, text, tokenizer, gen)
    }

    #[test]
    fn prompts_shape() {
        let (_, _, _, gen) = setup(SoftBackend::Gnn);
        let p = gen.prompts_for(&[0, 1]);
        assert_eq!(p.dims(), &[2, 16]);
    }

    #[test]
    fn sage_backend_also_works() {
        let (_, _, _, gen) = setup(SoftBackend::GraphSage);
        let p = gen.prompts_for(&[0, 2]);
        assert_eq!(p.dims(), &[2, 16]);
    }

    #[test]
    fn base_initialised_from_token_table() {
        let (g, text, tokenizer, gen) = setup(SoftBackend::Gnn);
        // Vertex 1 labelled "white": base row 1 = token embedding of white.
        let white_id = tokenizer.id_of("white");
        let expected = text.token_embedding_table().gather_rows(&[white_id]).to_vec();
        let base_row: Vec<f32> = (0..16).map(|j| gen.base.at2(1, j)).collect();
        for (x, y) in base_row.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-6);
        }
        let _ = g;
    }

    #[test]
    fn neighbours_influence_prompts() {
        // alpha < 1, so changing a neighbour's base changes the prompt.
        let (_, _, _, gen) = setup(SoftBackend::Gnn);
        let before = gen.prompts_for(&[0]).to_vec();
        {
            let mut data = gen.base.data_mut();
            let d = 16;
            for v in data.as_mut_slice()[d..2 * d].iter_mut() {
                *v += 1.0; // perturb vertex 1 ("white"), a neighbour of 0
            }
        }
        let after = gen.prompts_for(&[0]).to_vec();
        assert!(before.iter().zip(&after).any(|(x, y)| (x - y).abs() > 1e-5));
    }

    #[test]
    fn input_tokens_shape_and_grads() {
        let (_, _, _, gen) = setup(SoftBackend::Gnn);
        let prompts = gen.prompts_for(&[0, 1]);
        let label_means = Tensor::zeros(&[2, 16]);
        let tokens = gen.input_tokens(&label_means, &prompts);
        assert_eq!(tokens.dims(), &[2, 16]);
        tokens.sum().backward();
        for (name, p) in gen.named_params() {
            // The GNN's relu may zero some paths, but base and W must always
            // receive gradients.
            if name == "base" || name.starts_with("w.") {
                assert!(p.grad().is_some(), "no grad for {name}");
            }
        }
    }

    #[test]
    fn alpha_one_ignores_neighbour_sum() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = Graph::new();
        let a = g.add_vertex("a");
        let b = g.add_vertex("b");
        g.add_edge(a, b, "e");
        let tokenizer = Tokenizer::build(["a b e"]);
        let text = TextEncoder::new(
            TextEncoderConfig {
                vocab_size: tokenizer.vocab_size(),
                d_model: 8,
                heads: 2,
                layers: 1,
                ffn_hidden: 16,
                max_len: 8,
                embed_dim: 4,
            },
            &mut rng,
        );
        let gen = SoftPromptGenerator::new(&g, &text, &tokenizer, SoftBackend::Gnn, 1.0, &mut rng);
        let h = gen.structural_features();
        let p = gen.prompts_for(&[0]);
        for j in 0..8 {
            assert!((p.at2(0, j) - h.at2(0, j)).abs() < 1e-6);
        }
    }
}
