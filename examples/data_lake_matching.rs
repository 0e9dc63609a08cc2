//! Data-lake matching: the paper's motivating scenario (Fig. 1) built by
//! hand. A relational table, a JSON document, and a small graph are mapped
//! into one canonical graph; a handful of images are rendered from the same
//! latent world; CrossEM matches vertices to images.
//!
//! ```text
//! cargo run --release --example data_lake_matching
//! ```

use cem_clip::pretrain::PretrainConfig;
use cem_clip::{Clip, ClipConfig, Tokenizer};
use cem_data::{AttributePool, ClassSpec, EmDataset, World};
use cem_graph::{DataLakeBuilder, Table};
use cem_obs::json::Value;
use crossem::{CrossEm, PromptKind, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // ---------------------------------------------------------------
    // 1. Three heterogeneous sources, Figure-1 style.
    // ---------------------------------------------------------------
    let mut table = Table::new(
        "birds",
        vec!["name".into(), "crown color".into(), "wing shape".into(), "origin".into()],
    );
    table.push_row(vec![
        "laysan albatross".into(),
        "white crown".into(),
        "long wings".into(),
        "hawaii".into(),
    ]);
    table.push_row(vec![
        "downy woodpecker".into(),
        "red crown".into(),
        "short wings".into(),
        "north america".into(),
    ]);

    let json = Value::parse(
        r#"{"name": "snowy owl", "crown color": "white crown", "wing shape": "round wings",
            "habitat": "@ref:tundra"}"#,
    )
    .expect("valid json");

    let mut graph_source = cem_graph::Graph::new();
    let heron = graph_source.add_vertex("great heron");
    let grey = graph_source.add_vertex("grey crown");
    let long = graph_source.add_vertex("long wings");
    graph_source.add_edge(heron, grey, "has crown color");
    graph_source.add_edge(heron, long, "has wing shape");

    // Map everything into one canonical graph.
    let mut builder = DataLakeBuilder::new();
    builder.add_table(&table);
    builder.add_json("snowy owl", &json);
    builder.add_graph(&graph_source);
    let graph = builder.build();
    println!(
        "canonical graph: {} vertices, {} edges from {} sources",
        graph.vertex_count(),
        graph.edge_count(),
        3
    );

    // ---------------------------------------------------------------
    // 2. A tiny world renders images of the four birds.
    // ---------------------------------------------------------------
    let mut world = World::new(cem_data::world::WorldConfig::default(), &mut rng);
    let entities = ["laysan albatross", "downy woodpecker", "snowy owl", "great heron"];
    let traits: [&[&str]; 4] = [
        &["white crown", "long wings", "albatross"],
        &["red crown", "short wings", "woodpecker"],
        &["white crown", "round wings", "owl"],
        &["grey crown", "long wings", "heron"],
    ];
    for t in traits.iter().flat_map(|t| t.iter()) {
        world.register_text(t, &mut rng);
    }
    for label in &entities {
        world.register_text(label, &mut rng);
    }

    let mut images = Vec::new();
    let mut gold = Vec::new();
    for (i, t) in traits.iter().enumerate() {
        for _ in 0..3 {
            images.push(world.render_image(t, &mut rng));
            gold.push(i);
        }
    }

    // ---------------------------------------------------------------
    // 3. Pre-train a small CLIP on captions from the same world.
    // ---------------------------------------------------------------
    let mut captions = Vec::new();
    for _ in 0..80 {
        for (i, t) in traits.iter().enumerate() {
            let caption = format!("a photo of {} with {} and {}", entities[i], t[0], t[1]);
            captions.push((caption, world.render_image(t, &mut rng)));
        }
    }
    let mut texts: Vec<String> = captions.iter().map(|(c, _)| c.clone()).collect();
    for v in graph.vertices() {
        texts.push(graph.vertex_label(v).to_string());
    }
    texts.push("a photo of with and in has".into());
    let tokenizer = Tokenizer::build(texts.iter().map(String::as_str));

    let clip = Clip::new(
        ClipConfig::small(tokenizer.vocab_size(), world.config().patch_dim),
        &mut rng,
    );
    let pairs: Vec<(Vec<usize>, cem_clip::Image)> =
        captions.into_iter().map(|(c, img)| (tokenizer.encode(&c, 77).0, img)).collect();
    println!("pre-training CLIP on {} caption pairs …", pairs.len());
    cem_clip::pretrain(
        &clip,
        &pairs,
        &PretrainConfig { epochs: 8, batch_size: 32, lr: 1e-3, clip_norm: 5.0 },
        &mut rng,
    );

    // ---------------------------------------------------------------
    // 4. Assemble the EM dataset over the canonical graph and match.
    // ---------------------------------------------------------------
    let entity_vertices: Vec<cem_graph::VertexId> =
        entities.iter().map(|l| graph.find_vertex(l).expect("entity in graph")).collect();
    let dataset = EmDataset {
        name: "data-lake".into(),
        graph,
        entities: entity_vertices,
        classes: entities
            .iter()
            .map(|l| ClassSpec { name: l.to_string(), signature: vec![], name_reveals: 0 })
            .collect(),
        images,
        image_gold: gold,
        pool: AttributePool::synthesize(2, 2),
    };
    dataset.validate();

    let config = TrainConfig {
        prompt: PromptKind::Hard,
        hops: 1,
        epochs: 4,
        batch_vertices: 4,
        batch_images: 6,
        ..TrainConfig::default()
    };
    let matcher = CrossEm::new(&clip, &tokenizer, &dataset, config, &mut rng);
    matcher.train(&mut rng);
    let metrics = matcher.evaluate();
    println!("\ncross-modal EM over the data lake: {}", metrics.row());

    let top1 = crossem::MatchingSet::top1(&matcher.matching_matrix());
    for &(e, i, p) in &top1.pairs {
        let gold = if dataset.is_match(e, i) { "✓" } else { "✗" };
        println!("  {gold} {:18} -> image #{i} (p={p:.2})", dataset.entity_label(e));
    }
}
