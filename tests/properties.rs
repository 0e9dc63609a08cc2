//! Property-based tests over the workspace's core invariants (proptest).

use cem_graph::{d_hop_subgraph, Graph, VertexId};
use cem_obs::json::{Object, Value};
use cem_tensor::io::{CheckpointError, StateDict};
use cem_tensor::Tensor;
use crossem::kmeans::{clusters_of, kmeans};
use crossem::metrics::evaluate_rankings;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn vec_f32(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, len)
}

/// A deterministic checkpoint dict: `count` `[rows, cols]` tensors seeded
/// from `seed`, with metadata when requested.
fn build_dict(count: usize, rows: usize, cols: usize, seed: u64, with_meta: bool) -> StateDict {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dict = StateDict::new();
    for i in 0..count {
        let data: Vec<f32> =
            (0..rows * cols).map(|_| rng.gen::<f32>() * 2000.0 - 1000.0).collect();
        dict.insert(format!("entry.{i}"), Tensor::from_vec(data, &[rows, cols]));
    }
    if with_meta {
        dict.insert_meta("epochs_done", seed % 97);
        dict.insert_meta("seed", seed);
    }
    dict
}

fn dicts_equal(a: &StateDict, b: &StateDict) -> bool {
    let entries_a: Vec<_> = a.iter().map(|(n, t)| (n.to_string(), t.dims().to_vec(), t.to_vec())).collect();
    let entries_b: Vec<_> = b.iter().map(|(n, t)| (n.to_string(), t.dims().to_vec(), t.to_vec())).collect();
    let bits = |e: &[(String, Vec<usize>, Vec<f32>)]| -> Vec<(String, Vec<usize>, Vec<u32>)> {
        e.iter()
            .map(|(n, d, v)| (n.clone(), d.clone(), v.iter().map(|x| x.to_bits()).collect()))
            .collect()
    };
    bits(&entries_a) == bits(&entries_b)
        && a.meta_iter().collect::<Vec<_>>() == b.meta_iter().collect::<Vec<_>>()
}

proptest! {
    // ---------------- tensor algebra ----------------

    #[test]
    fn add_commutes(a in vec_f32(12), b in vec_f32(12)) {
        let ta = Tensor::from_vec(a, &[3, 4]);
        let tb = Tensor::from_vec(b, &[3, 4]);
        let x = ta.add(&tb).to_vec();
        let y = tb.add(&ta).to_vec();
        for (u, v) in x.iter().zip(&y) {
            prop_assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_rows_are_distributions(data in vec_f32(20)) {
        let t = Tensor::from_vec(data, &[4, 5]);
        let s = t.softmax_rows();
        for r in 0..4 {
            let sum: f32 = (0..5).map(|c| s.at2(r, c)).sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            for c in 0..5 {
                prop_assert!(s.at2(r, c) >= 0.0);
            }
        }
    }

    #[test]
    fn l2_normalized_rows_are_unit_or_zero(data in vec_f32(18)) {
        let t = Tensor::from_vec(data, &[3, 6]);
        let n = t.l2_normalize_rows();
        for r in 0..3 {
            let norm: f32 = (0..6).map(|c| n.at2(r, c).powi(2)).sum::<f32>().sqrt();
            prop_assert!(norm < 1.0 + 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(a in vec_f32(6), b in vec_f32(6), c in vec_f32(6)) {
        // A(B + C) == AB + AC
        let ta = Tensor::from_vec(a, &[2, 3]);
        let tb = Tensor::from_vec(b, &[3, 2]);
        let tc = Tensor::from_vec(c, &[3, 2]);
        let lhs = ta.matmul(&tb.add(&tc)).to_vec();
        let rhs = ta.matmul(&tb).add(&ta.matmul(&tc)).to_vec();
        for (u, v) in lhs.iter().zip(&rhs) {
            prop_assert!((u - v).abs() < 1e-3, "{u} vs {v}");
        }
    }

    #[test]
    fn sum_gradient_is_all_ones(data in vec_f32(10)) {
        let t = Tensor::from_vec(data, &[10]).requires_grad();
        t.sum().backward();
        prop_assert_eq!(t.grad().unwrap(), vec![1.0; 10]);
    }

    #[test]
    fn transpose_is_involutive(data in vec_f32(12)) {
        let t = Tensor::from_vec(data.clone(), &[3, 4]);
        prop_assert_eq!(t.transpose().transpose().to_vec(), data);
    }

    // ---------------- graph invariants ----------------

    #[test]
    fn subgraph_edges_stay_inside(edges in prop::collection::vec((0usize..8, 0usize..8), 1..20), d in 0usize..4) {
        let mut g = Graph::new();
        for i in 0..8 {
            g.add_vertex(format!("v{i}"));
        }
        for (s, t) in &edges {
            g.add_edge(VertexId(*s), VertexId(*t), "e");
        }
        let sub = d_hop_subgraph(&g, VertexId(0), d);
        for &e in &sub.edges {
            let (s, t) = g.edge_endpoints(e);
            prop_assert!(sub.contains(s) && sub.contains(t));
        }
        // Depths are bounded by d and the center comes first.
        prop_assert_eq!(sub.vertices[0], VertexId(0));
        prop_assert!(sub.depths.iter().all(|&x| x <= d));
    }

    #[test]
    fn bigger_radius_never_shrinks_subgraph(edges in prop::collection::vec((0usize..6, 0usize..6), 1..15)) {
        let mut g = Graph::new();
        for i in 0..6 {
            g.add_vertex(format!("v{i}"));
        }
        for (s, t) in &edges {
            g.add_edge(VertexId(*s), VertexId(*t), "e");
        }
        let mut last = 0usize;
        for d in 0..4 {
            let n = d_hop_subgraph(&g, VertexId(0), d).vertex_count();
            prop_assert!(n >= last);
            last = n;
        }
    }

    #[test]
    fn json_display_parse_roundtrip(keys in prop::collection::vec("[a-z]{1,6}", 1..5), n in -1000i32..1000) {
        let mut object = Object::new();
        for (i, k) in keys.iter().enumerate() {
            object.push(k.clone(), if i % 2 == 0 { Value::Num(n as f64) } else { Value::Str(format!("s{i}")) });
        }
        let v = Value::Obj(object);
        let (compact, pretty) = (Value::parse(&v.to_json()), Value::parse(&v.to_pretty()));
        prop_assert_eq!(compact.as_ref(), Ok(&v));
        prop_assert_eq!(pretty.as_ref(), Ok(&v));
    }

    // ---------------- metrics invariants ----------------

    #[test]
    fn hits_are_monotone_in_k(golds in prop::collection::vec(0usize..10, 1..8)) {
        let rankings: Vec<Vec<usize>> = golds.iter().map(|_| (0..10).collect()).collect();
        let m = evaluate_rankings(&rankings, |q, img| img == golds[q]);
        prop_assert!(m.hits_at_1 <= m.hits_at_3 + 1e-6);
        prop_assert!(m.hits_at_3 <= m.hits_at_5 + 1e-6);
        prop_assert!(m.mrr > 0.0 && m.mrr <= 1.0);
        prop_assert!(m.mrr + 1e-6 >= m.hits_at_1); // MRR lower-bounded by H@1
    }

    // ---------------- kmeans invariants ----------------

    #[test]
    fn kmeans_assigns_every_point(points in prop::collection::vec(vec_f32(3), 1..30), k in 1usize..6, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let result = kmeans(&points, k, 20, &mut rng);
        prop_assert_eq!(result.assignments.len(), points.len());
        let kk = k.min(points.len());
        prop_assert!(result.assignments.iter().all(|&a| a < kk));
        let groups = clusters_of(&result, kk);
        let total: usize = groups.iter().map(Vec::len).sum();
        prop_assert_eq!(total, points.len());
    }

    // ---------------- tokenizer invariants ----------------

    #[test]
    fn tokenizer_encode_respects_budget(text in "[a-z ]{0,200}", max_len in 2usize..40) {
        let tok = cem_clip::Tokenizer::build([text.as_str()]);
        let (ids, len) = tok.encode(&text, max_len);
        prop_assert_eq!(ids.len(), len);
        prop_assert!(len <= max_len);
        prop_assert_eq!(ids[0], cem_clip::tokenizer::CLS);
        prop_assert_eq!(*ids.last().unwrap(), cem_clip::tokenizer::SEP);
    }

    #[test]
    fn tokenizer_roundtrips_known_words(words in prop::collection::vec("[a-z]{1,8}", 1..10)) {
        let text = words.join(" ");
        let tok = cem_clip::Tokenizer::build([text.as_str()]);
        let ids = tok.tokenize(&text);
        let decoded = tok.decode(&ids);
        prop_assert_eq!(decoded, text.split_whitespace().collect::<Vec<_>>().join(" "));
    }

    // ---------------- checkpoint container (CEMT) ----------------

    #[test]
    fn cemt_v2_roundtrips(count in 1usize..5, rows in 1usize..4, cols in 1usize..6, seed in 0u64..1000) {
        let dict = build_dict(count, rows, cols, seed, true);
        let restored = StateDict::from_bytes(&dict.to_bytes()).unwrap();
        prop_assert!(dicts_equal(&dict, &restored));
    }

    #[test]
    fn cemt_v1_files_are_rejected(count in 1usize..5, rows in 1usize..4, cols in 1usize..6, seed in 0u64..1000) {
        // v1 carried no CRCs; a file whose version word reads 1 is refused
        // before any entry is parsed, so no integrity check is skipped.
        let mut bytes = build_dict(count, rows, cols, seed, false).to_bytes();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let err = StateDict::from_bytes(&bytes).unwrap_err();
        prop_assert!(matches!(err, CheckpointError::UnsupportedVersion(1)), "{}", err);
    }

    #[test]
    fn cemt_v2_detects_any_byte_corruption(seed in 0u64..500, offset_sel in 0usize..100_000, mask in 0u8..255) {
        let bytes = build_dict(2, 2, 3, seed, true).to_bytes();
        let mut bad = bytes.clone();
        let offset = offset_sel % bad.len();
        bad[offset] ^= mask.wrapping_add(1).max(1);
        prop_assert!(
            StateDict::from_bytes(&bad).is_err(),
            "corrupting byte {} went undetected", offset
        );
    }

    #[test]
    fn cemt_v2_detects_any_truncation(seed in 0u64..500, cut_sel in 0usize..100_000) {
        let bytes = build_dict(2, 2, 3, seed, true).to_bytes();
        let keep = cut_sel % bytes.len();
        prop_assert!(
            StateDict::from_bytes(&bytes[..keep]).is_err(),
            "truncation to {} bytes went undetected", keep
        );
    }
}

/// Exhaustive, not sampled: *every* single-byte flip anywhere in a v2
/// container — header, entry payloads, CRCs, footer — must be caught. The
/// 9 KiB entry takes the CRC's three-lane path, the small ones one lane.
#[test]
fn cemt_v2_every_single_byte_flip_is_caught() {
    let mut dict = build_dict(3, 2, 3, 42, true);
    let large: Vec<f32> = (0..48 * 48).map(|i| i as f32 * 0.25 - 288.0).collect();
    dict.insert("entry.large", Tensor::from_vec(large, &[48, 48]));
    let bytes = dict.to_bytes();
    assert!(bytes.len() >= 8 * 1024);
    for offset in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[offset] ^= 0xFF;
        assert!(
            StateDict::from_bytes(&bad).is_err(),
            "flipping byte {offset}/{} went undetected",
            bytes.len()
        );
    }
}
