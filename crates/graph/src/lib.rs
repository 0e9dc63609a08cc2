//! # cem-graph
//!
//! The data-lake substrate of the CrossEM reproduction: a directed labelled
//! graph type (paper Def. "Graph": `G = (V, E, L)`), a relational table
//! type, and the *data mapping* step that converts structured tables and
//! semi-structured JSON documents (parsed by [`cem_obs::json`]) into one
//! canonical graph (paper Sec. II-A): tuples of tables and keys of JSON
//! objects become entities (vertices); foreign keys and JSON references
//! become relationships (edges).
//!
//! Also provides the traversal primitives the prompt generators need:
//! breadth-first search and d-hop subgraph extraction (paper Sec. III-A).

pub mod graph;
pub mod mapping;
pub mod table;
pub mod traversal;

pub use graph::{EdgeId, Graph, VertexId};
pub use mapping::{json_to_graph, table_to_graph, DataLakeBuilder};
pub use table::Table;
pub use traversal::{bfs_order, d_hop_subgraph, Subgraph};
