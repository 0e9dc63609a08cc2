//! Data mapping: converting data-lake sources into one canonical graph
//! (paper Sec. II-A).
//!
//! * Relational tables — each tuple's key value becomes an entity vertex;
//!   every other attribute value becomes a value vertex connected by an edge
//!   labelled `has <column>`; declared foreign keys become entity→entity
//!   edges labelled with the column name.
//! * JSON documents ([`cem_obs::json::Value`]) — every object becomes an
//!   entity vertex (labelled by its `name` field or its key); scalar fields
//!   become value vertices; string values of the form `"@ref:<key>"`
//!   become edges to the referenced entity. Fields are walked in sorted key
//!   order, and a repeated key resolves to its last value, so the graph
//!   does not depend on how a document orders its fields.
//! * Graphs are merged verbatim.
//!
//! Vertices are interned by label, so `white` appearing as the crown colour
//! of two birds becomes one shared vertex — exactly the structure the
//! paper's Figure 1(b) shows and the prompt generators exploit.

use std::collections::{BTreeMap, HashMap};

use cem_obs::json::Value;

use crate::graph::{Graph, VertexId};
use crate::table::Table;

/// Convert a single table into a fresh graph (convenience wrapper over
/// [`DataLakeBuilder`]).
pub fn table_to_graph(table: &Table) -> Graph {
    let mut builder = DataLakeBuilder::new();
    builder.add_table(table);
    builder.build()
}

/// Convert a single JSON document into a fresh graph.
pub fn json_to_graph(name: &str, value: &Value) -> Graph {
    let mut builder = DataLakeBuilder::new();
    builder.add_json(name, value);
    builder.build()
}

/// Accumulates heterogeneous sources and produces one canonical graph.
pub struct DataLakeBuilder {
    graph: Graph,
    interned: HashMap<String, VertexId>,
    sources: usize,
}

impl Default for DataLakeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DataLakeBuilder {
    pub fn new() -> Self {
        DataLakeBuilder { graph: Graph::new(), interned: HashMap::new(), sources: 0 }
    }

    /// Number of sources ingested so far.
    pub fn source_count(&self) -> usize {
        self.sources
    }

    fn intern(&mut self, label: &str) -> VertexId {
        if let Some(&id) = self.interned.get(label) {
            return id;
        }
        let id = self.graph.add_vertex(label);
        self.interned.insert(label.to_string(), id);
        id
    }

    /// Ingest a relational table.
    pub fn add_table(&mut self, table: &Table) {
        self.sources += 1;
        let fk_columns: Vec<usize> = table.foreign_keys().iter().map(|(c, _)| *c).collect();
        for (row_idx, row) in table.rows().iter().enumerate() {
            let entity = self.intern(table.key_of(row_idx));
            for (col_idx, value) in row.iter().enumerate() {
                if col_idx == table.key_column() || value.is_empty() {
                    continue;
                }
                let target = self.intern(value);
                let label = if fk_columns.contains(&col_idx) {
                    table.columns()[col_idx].clone()
                } else {
                    format!("has {}", table.columns()[col_idx])
                };
                self.graph.add_edge(entity, target, label);
            }
        }
    }

    /// Ingest a JSON document rooted at an entity called `name`.
    pub fn add_json(&mut self, name: &str, value: &Value) {
        self.sources += 1;
        let root = self.intern(name);
        self.add_json_value(root, value);
    }

    fn add_json_value(&mut self, parent: VertexId, value: &Value) {
        match value {
            Value::Obj(object) => {
                let fields: BTreeMap<&str, &Value> =
                    object.0.iter().map(|(key, field)| (key.as_str(), field)).collect();
                for (key, field) in fields {
                    self.add_json_field(parent, key, field);
                }
            }
            Value::Arr(items) => {
                for item in items {
                    self.add_json_value(parent, item);
                }
            }
            scalar => self.add_json_field(parent, "value", scalar),
        }
    }

    /// One field `key` of `parent`: a nested object becomes its own entity
    /// (named by its `name` field if present, otherwise by the key), an
    /// array fans out, a reference links, any other scalar is a value.
    fn add_json_field(&mut self, parent: VertexId, key: &str, value: &Value) {
        match value {
            Value::Null => {}
            Value::Obj(_) => {
                let label = value.get("name").and_then(Value::as_str).unwrap_or(key).to_string();
                let child = self.intern(&label);
                self.graph.add_edge(parent, child, key.to_string());
                self.add_json_value(child, value);
            }
            Value::Arr(items) => {
                for item in items {
                    self.add_json_field(parent, key, item);
                }
            }
            scalar => {
                let (label, edge) = match scalar {
                    Value::Str(s) => match s.strip_prefix("@ref:") {
                        Some(reference) => (reference.to_string(), key.to_string()),
                        None => (s.clone(), format!("has {key}")),
                    },
                    number_or_bool => (number_or_bool.to_json(), format!("has {key}")),
                };
                let target = self.intern(&label);
                self.graph.add_edge(parent, target, edge);
            }
        }
    }

    /// Ingest an existing graph, interning its vertices by label (vertices
    /// with identical labels across sources unify).
    pub fn add_graph(&mut self, other: &Graph) {
        self.sources += 1;
        let mapped: Vec<VertexId> =
            other.vertices().map(|v| self.intern(other.vertex_label(v))).collect();
        for e in 0..other.edge_count() {
            let (src, dst) = other.edge_endpoints(crate::graph::EdgeId(e));
            self.graph.add_edge(
                mapped[src.0],
                mapped[dst.0],
                other.edge_label(crate::graph::EdgeId(e)),
            );
        }
    }

    /// Look up the canonical vertex for a label ingested so far.
    pub fn vertex_for(&self, label: &str) -> Option<VertexId> {
        self.interned.get(label).copied()
    }

    /// Finish and return the canonical graph.
    pub fn build(self) -> Graph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeId;

    fn birds_table() -> Table {
        let mut t =
            Table::new("birds", vec!["name".into(), "crown color".into(), "wing shape".into()]);
        t.push_row(vec!["laysan albatross".into(), "white".into(), "long-wings".into()]);
        t.push_row(vec!["woodpecker".into(), "red".into(), "short-wings".into()]);
        t
    }

    #[test]
    fn table_rows_become_star_subgraphs() {
        let g = table_to_graph(&birds_table());
        let albatross = g.find_vertex("laysan albatross").unwrap();
        let neighbors: Vec<&str> =
            g.out_neighbors(albatross).iter().map(|&v| g.vertex_label(v)).collect();
        assert_eq!(neighbors, vec!["white", "long-wings"]);
        let edge = g.out_edges(albatross)[0];
        assert_eq!(g.edge_label(edge), "has crown color");
    }

    #[test]
    fn shared_values_are_interned() {
        let mut t = Table::new("birds", vec!["name".into(), "color".into()]);
        t.push_row(vec!["a".into(), "white".into()]);
        t.push_row(vec!["b".into(), "white".into()]);
        let g = table_to_graph(&t);
        // a, b, white -> 3 vertices, not 4.
        assert_eq!(g.vertex_count(), 3);
        let white = g.find_vertex("white").unwrap();
        assert_eq!(g.in_neighbors(white).len(), 2);
    }

    #[test]
    fn foreign_keys_link_entities() {
        let mut birds = Table::new("birds", vec!["name".into()]);
        birds.push_row(vec!["albatross".into()]);
        let mut sightings = Table::new("sightings", vec!["id".into(), "bird".into()])
            .with_foreign_key("bird", "birds");
        sightings.push_row(vec!["s1".into(), "albatross".into()]);

        let mut builder = DataLakeBuilder::new();
        builder.add_table(&birds);
        builder.add_table(&sightings);
        let g = builder.build();

        let s1 = g.find_vertex("s1").unwrap();
        let albatross = g.find_vertex("albatross").unwrap();
        assert_eq!(g.out_neighbors(s1), vec![albatross]);
        // FK edge keeps the bare column name (a relationship, not a "has").
        assert_eq!(g.edge_label(g.out_edges(s1)[0]), "bird");
    }

    #[test]
    fn json_objects_become_entities() {
        let doc = Value::parse(
            r#"{"name": "laysan albatross", "crown": "white", "habitat": "@ref:hawaii"}"#,
        )
        .unwrap();
        let g = json_to_graph("laysan albatross", &doc);
        let root = g.find_vertex("laysan albatross").unwrap();
        let labels: Vec<&str> =
            g.out_neighbors(root).iter().map(|&v| g.vertex_label(v)).collect();
        assert!(labels.contains(&"white"));
        assert!(labels.contains(&"hawaii"));
        // The name field points at the interned root itself (same label).
        assert!(labels.contains(&"laysan albatross"));
    }

    #[test]
    fn json_arrays_fan_out() {
        let doc = Value::parse(r#"{"colors": ["white", "black", "grey"]}"#).unwrap();
        let g = json_to_graph("bird", &doc);
        let root = g.find_vertex("bird").unwrap();
        assert_eq!(g.out_neighbors(root).len(), 3);
    }

    #[test]
    fn json_nested_objects_recurse() {
        let doc = Value::parse(r#"{"wing": {"name": "long-wings", "color": "grey"}}"#).unwrap();
        let g = json_to_graph("albatross", &doc);
        let root = g.find_vertex("albatross").unwrap();
        let wing = g.find_vertex("long-wings").unwrap();
        let grey = g.find_vertex("grey").unwrap();
        assert!(g.out_neighbors(root).contains(&wing));
        assert!(g.out_neighbors(wing).contains(&grey));
    }

    #[test]
    fn mixed_sources_unify_on_labels() {
        let mut builder = DataLakeBuilder::new();
        builder.add_table(&birds_table());
        let doc = Value::parse(r#"{"name": "laysan albatross", "food": "squid"}"#).unwrap();
        builder.add_json("laysan albatross", &doc);
        assert_eq!(builder.source_count(), 2);
        let g = builder.build();
        let albatross = g.find_vertex("laysan albatross").unwrap();
        let labels: Vec<&str> =
            g.out_neighbors(albatross).iter().map(|&v| g.vertex_label(v)).collect();
        // Table attributes and JSON attributes hang off the same entity.
        assert!(labels.contains(&"white"));
        assert!(labels.contains(&"squid"));
    }

    #[test]
    fn graphs_merge_by_label() {
        let mut g1 = Graph::new();
        let a = g1.add_vertex("a");
        let b = g1.add_vertex("b");
        g1.add_edge(a, b, "e1");
        let mut g2 = Graph::new();
        let b2 = g2.add_vertex("b");
        let c = g2.add_vertex("c");
        g2.add_edge(b2, c, "e2");

        let mut builder = DataLakeBuilder::new();
        builder.add_graph(&g1);
        builder.add_graph(&g2);
        let g = builder.build();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        let b = g.find_vertex("b").unwrap();
        assert_eq!(g.degree(b), 2);
    }

    /// Vertex labels in id order, then `src>dst:label` edges.
    fn layout(g: &Graph) -> String {
        let labels: Vec<&str> = g.vertices().map(|v| g.vertex_label(v)).collect();
        let edges: Vec<String> = (0..g.edge_count())
            .map(|e| {
                let (src, dst) = g.edge_endpoints(EdgeId(e));
                format!("{}>{}:{}", src.0, dst.0, g.edge_label(EdgeId(e)))
            })
            .collect();
        format!("{} | {}", labels.join(","), edges.join(","))
    }

    #[test]
    fn data_lake_example_graph_is_pinned() {
        // The three sources of `examples/data_lake_matching.rs`; labels and
        // edges as the mapping built them before it read `cem_obs` values.
        let columns = ["name", "crown color", "wing shape", "origin"];
        let mut table = Table::new("birds", columns.map(String::from).to_vec());
        for row in [
            ["laysan albatross", "white crown", "long wings", "hawaii"],
            ["downy woodpecker", "red crown", "short wings", "north america"],
        ] {
            table.push_row(row.map(String::from).to_vec());
        }
        let json = Value::parse(
            r#"{"name": "snowy owl", "crown color": "white crown", "wing shape": "round wings",
            "habitat": "@ref:tundra"}"#,
        )
        .unwrap();
        let mut source = Graph::new();
        let heron = source.add_vertex("great heron");
        let (grey, long) = (source.add_vertex("grey crown"), source.add_vertex("long wings"));
        source.add_edge(heron, grey, "has crown color");
        source.add_edge(heron, long, "has wing shape");
        assert_eq!(
            layout(&json_to_graph("snowy owl", &json)),
            "snowy owl,white crown,tundra,round wings | \
             0>1:has crown color,0>2:habitat,0>0:has name,0>3:has wing shape"
        );
        let mut builder = DataLakeBuilder::new();
        builder.add_table(&table);
        builder.add_json("snowy owl", &json);
        builder.add_graph(&source);
        assert_eq!(
            layout(&builder.build()),
            "laysan albatross,white crown,long wings,hawaii,downy woodpecker,red crown,\
             short wings,north america,snowy owl,tundra,round wings,great heron,grey crown | \
             0>1:has crown color,0>2:has wing shape,0>3:has origin,4>5:has crown color,\
             4>6:has wing shape,4>7:has origin,8>1:has crown color,8>9:habitat,8>8:has name,\
             8>10:has wing shape,11>12:has crown color,11>2:has wing shape"
        );
    }

    #[test]
    fn json_fields_walk_in_key_order_and_repeated_keys_keep_the_last() {
        // Pinned as the `BTreeMap`-backed mapping built it: sorted keys,
        // last-wins duplicates, nested arrays flattened under their key,
        // numbers printed as JSON, nulls skipped.
        let doc = Value::parse(
            r#"{"z": 1, "a": [true, 2.5, {"name": "w", "k": null}], "n": {"x": "@ref:q", "x": "last"},
            "big": 1e15, "neg": -0.0, "a2": [[1, 2], "s"]}"#,
        )
        .unwrap();
        assert_eq!(
            layout(&json_to_graph("root", &doc)),
            "root,true,2.5,w,1,2,s,1000000000000000,n,last,0 | 0>1:has a,0>2:has a,0>3:a,\
             3>3:has name,0>4:has a2,0>5:has a2,0>6:has a2,0>7:has big,0>8:n,8>9:has x,\
             0>10:has neg,0>4:has z"
        );
    }

    #[test]
    fn null_fields_are_skipped() {
        let doc = Value::parse(r#"{"a": null, "b": "x"}"#).unwrap();
        let g = json_to_graph("root", &doc);
        let root = g.find_vertex("root").unwrap();
        assert_eq!(g.out_neighbors(root).len(), 1);
    }
}
