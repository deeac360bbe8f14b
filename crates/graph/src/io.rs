//! Plain-text persistence for labeled graphs.
//!
//! Format (one file):
//!
//! ```text
//! # comment lines start with '#'
//! v <id> <label> [name]      — vertex declaration
//! e <id> <id>                — undirected edge
//! ```
//!
//! Vertex ids must be dense `0..n` but may appear in any order; every edge
//! endpoint must be declared. The writer emits vertices in id order followed
//! by each edge once (`u < v`), so files round-trip byte-identically.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::graph::{LabeledGraph, VertexId};

/// Errors produced while parsing a graph file.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the file, with line number (1-based).
    Malformed { line: usize, message: String },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Malformed { line, message } => {
                write!(f, "malformed graph file at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Io(e) => Some(e),
            ParseError::Malformed { .. } => None,
        }
    }
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// One `v` record: id, label, optional name, and the line it came from.
type VertexRecord = (u32, String, Option<String>, usize);

/// Reads a labeled graph from the text format described in the module docs.
///
/// Vertex records are placed by id only once the file is read, when their
/// count is known, so a stray huge id is an error and never an allocation.
pub fn read_graph<R: Read>(reader: R) -> Result<LabeledGraph, ParseError> {
    let reader = BufReader::new(reader);
    let mut records: Vec<VertexRecord> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut any_named = false;

    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = line_no + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let tag = parts.next().unwrap();
        let malformed = |message: &str| ParseError::Malformed {
            line: line_no,
            message: message.to_owned(),
        };
        match tag {
            "v" => {
                let id: u32 = parts
                    .next()
                    .ok_or_else(|| malformed("vertex line missing id"))?
                    .parse()
                    .map_err(|_| malformed("vertex id is not an integer in 0..2^32"))?;
                let label = parts
                    .next()
                    .ok_or_else(|| malformed("vertex line missing label"))?
                    .to_owned();
                let rest: Vec<&str> = parts.collect();
                let name = if rest.is_empty() {
                    None
                } else {
                    any_named = true;
                    Some(rest.join(" "))
                };
                records.push((id, label, name, line_no));
            }
            "e" => {
                let u: u32 = parts
                    .next()
                    .ok_or_else(|| malformed("edge line missing first endpoint"))?
                    .parse()
                    .map_err(|_| malformed("edge endpoint is not an integer"))?;
                let v: u32 = parts
                    .next()
                    .ok_or_else(|| malformed("edge line missing second endpoint"))?
                    .parse()
                    .map_err(|_| malformed("edge endpoint is not an integer"))?;
                edges.push((u, v));
            }
            other => {
                return Err(malformed(&format!("unknown record tag `{other}`")));
            }
        }
    }

    // Dense ids: with n records, every id must lie below n, and then n
    // distinct ids fill 0..n exactly.
    let n = records.len();
    let mut slot_of: Vec<Option<usize>> = vec![None; n];
    for (idx, &(id, _, _, line)) in records.iter().enumerate() {
        let malformed = |message: String| ParseError::Malformed { line, message };
        let slot = slot_of.get_mut(id as usize).ok_or_else(|| {
            malformed(format!(
                "vertex id {id} out of range: the file declares {n} vertices (ids must be dense)"
            ))
        })?;
        if slot.is_some() {
            return Err(malformed(format!("duplicate vertex id {id}")));
        }
        *slot = Some(idx);
    }

    let mut builder = GraphBuilder::new();
    for idx in slot_of.into_iter().flatten() {
        let (_, label, name, _) = &records[idx];
        if any_named {
            builder.add_named_vertex(name.as_deref().unwrap_or(""), label);
        } else {
            builder.add_vertex(label);
        }
    }
    let n = n as u32;
    for (u, v) in edges {
        if u >= n || v >= n {
            return Err(ParseError::Malformed {
                line: 0,
                message: format!("edge ({u}, {v}) references undeclared vertex"),
            });
        }
        builder.add_edge(VertexId(u), VertexId(v));
    }
    Ok(builder.build())
}

/// Writes `graph` in the text format (vertices in id order, then each edge
/// once with `u < v`).
pub fn write_graph<W: Write>(graph: &LabeledGraph, writer: W) -> io::Result<()> {
    let mut out = BufWriter::new(writer);
    let mut line = String::new();
    for v in graph.vertices() {
        line.clear();
        let label_name = graph
            .interner()
            .name(graph.label(v))
            .expect("graph label must be interned");
        let _ = write!(line, "v {} {}", v.0, label_name);
        let name = graph.vertex_name(v);
        if name != format!("v{}", v.0) {
            let _ = write!(line, " {name}");
        }
        writeln!(out, "{line}")?;
    }
    for (u, v) in graph.edges() {
        writeln!(out, "e {} {}", u.0, v.0)?;
    }
    out.flush()
}

/// Reads a SNAP-style edge list (`u v` per line, `#` comments) plus a
/// separate label assignment (`vertex label` per line). Vertices appearing
/// in the edge list without a label line get the fallback label `"_"`.
/// Vertex ids need not be dense — they are remapped to dense ids in first
/// appearance order; the returned vector maps dense id → original id.
pub fn read_snap<R1: Read, R2: Read>(
    edges: R1,
    labels: R2,
) -> Result<(LabeledGraph, Vec<u64>), ParseError> {
    use rustc_hash::FxHashMap;
    let mut label_of: FxHashMap<u64, String> = FxHashMap::default();
    for (line_no, line) in BufReader::new(labels).lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let id: u64 = parts
            .next()
            .unwrap()
            .parse()
            .map_err(|_| ParseError::Malformed {
                line: line_no + 1,
                message: "label line must start with a vertex id".into(),
            })?;
        let label = parts.next().ok_or_else(|| ParseError::Malformed {
            line: line_no + 1,
            message: "label line missing the label".into(),
        })?;
        label_of.insert(id, label.to_owned());
    }

    let mut builder = GraphBuilder::new();
    let mut dense: FxHashMap<u64, VertexId> = FxHashMap::default();
    let mut original: Vec<u64> = Vec::new();
    let intern = |builder: &mut GraphBuilder,
                      dense: &mut FxHashMap<u64, VertexId>,
                      original: &mut Vec<u64>,
                      id: u64|
     -> VertexId {
        *dense.entry(id).or_insert_with(|| {
            let label = label_of.get(&id).map(String::as_str).unwrap_or("_");
            original.push(id);
            builder.add_vertex(label)
        })
    };
    for (line_no, line) in BufReader::new(edges).lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse = |token: Option<&str>| -> Result<u64, ParseError> {
            token
                .ok_or_else(|| ParseError::Malformed {
                    line: line_no + 1,
                    message: "edge line needs two endpoints".into(),
                })?
                .parse()
                .map_err(|_| ParseError::Malformed {
                    line: line_no + 1,
                    message: "edge endpoint is not an integer".into(),
                })
        };
        let u = parse(parts.next())?;
        let v = parse(parts.next())?;
        let ud = intern(&mut builder, &mut dense, &mut original, u);
        let vd = intern(&mut builder, &mut dense, &mut original, v);
        builder.add_edge(ud, vd);
    }
    Ok((builder.build(), original))
}

/// Reads a graph from a file path.
pub fn read_graph_file(path: impl AsRef<Path>) -> Result<LabeledGraph, ParseError> {
    read_graph(std::fs::File::open(path)?)
}

/// Writes a graph to a file path.
pub fn write_graph_file(graph: &LabeledGraph, path: impl AsRef<Path>) -> io::Result<()> {
    write_graph(graph, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn roundtrip_named() {
        let mut b = GraphBuilder::new();
        let t = b.add_named_vertex("Toronto", "Canada");
        let f = b.add_named_vertex("Frankfurt", "Germany");
        let m = b.add_named_vertex("Munich", "Germany");
        b.add_edge(t, f);
        b.add_edge(f, m);
        let g = b.build();

        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let g2 = read_graph(&buf[..]).unwrap();
        assert_eq!(g2.vertex_count(), 3);
        assert_eq!(g2.edge_count(), 2);
        assert_eq!(g2.vertex_by_name("Munich"), Some(m));
        assert_eq!(
            g2.interner().name(g2.label(f)),
            Some("Germany")
        );
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# a graph\n\nv 0 A\nv 1 B\n\ne 0 1\n";
        let g = read_graph(text.as_bytes()).unwrap();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn rejects_missing_vertex() {
        let text = "v 0 A\nv 2 B\ne 0 2\n";
        let err = read_graph(text.as_bytes()).unwrap_err();
        assert!(matches!(err, ParseError::Malformed { .. }));
    }

    /// Ids that do not fit `u32`, or reach past the record count, are parse
    /// errors with their line: a reader that sized its vertex table by the
    /// id would panic or ask for hundreds of gigabytes.
    #[test]
    fn rejects_huge_vertex_ids_without_allocating() {
        for (text, needle) in [
            ("v 18446744073709551615 B\n", "not an integer in 0..2^32"),
            ("v 4294967296 B\n", "not an integer in 0..2^32"),
            ("v 3000000000 B\n", "vertex id 3000000000 out of range"),
        ] {
            match read_graph(text.as_bytes()).unwrap_err() {
                ParseError::Malformed { line, message } => {
                    assert_eq!(line, 1, "{text:?}");
                    assert!(message.contains(needle), "{text:?}: {message}");
                }
                other => panic!("{text:?}: {other:?}"),
            }
        }
        let text = "v 0 A\n# gap\nv 5 A\n";
        match read_graph(text.as_bytes()).unwrap_err() {
            ParseError::Malformed { line, .. } => assert_eq!(line, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ids_may_come_in_any_order() {
        let text = "v 2 C\nv 0 A\nv 1 B\ne 0 2\n";
        let g = read_graph(text.as_bytes()).unwrap();
        assert_eq!(g.interner().name(g.label(VertexId(0))), Some("A"));
        assert_eq!(g.interner().name(g.label(VertexId(2))), Some("C"));
        assert!(g.has_edge(VertexId(0), VertexId(2)));
    }

    #[test]
    fn rejects_duplicate_vertex() {
        let text = "v 0 A\nv 0 B\n";
        match read_graph(text.as_bytes()).unwrap_err() {
            ParseError::Malformed { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("duplicate vertex id 0"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_dangling_edge() {
        let text = "v 0 A\ne 0 7\n";
        assert!(read_graph(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_garbage_tag() {
        let text = "x 0 A\n";
        assert!(read_graph(text.as_bytes()).is_err());
    }

    #[test]
    fn snap_two_file_format() {
        let edges = "# comment\n10 20\n20 30\n10 30\n";
        let labels = "10 SE\n20 UI\n# 30 has no label\n";
        let (g, original) = read_snap(edges.as_bytes(), labels.as_bytes()).unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(original, vec![10, 20, 30]);
        assert_eq!(g.interner().name(g.label(VertexId(0))), Some("SE"));
        assert_eq!(g.interner().name(g.label(VertexId(2))), Some("_"), "fallback label");
    }

    #[test]
    fn snap_rejects_malformed_lines() {
        assert!(read_snap("1\n".as_bytes(), "".as_bytes()).is_err());
        assert!(read_snap("a b\n".as_bytes(), "".as_bytes()).is_err());
        assert!(read_snap("".as_bytes(), "1\n".as_bytes()).is_err());
    }

    #[test]
    fn snap_non_dense_ids_are_remapped() {
        let edges = "1000000 5\n5 42\n";
        let (g, original) = read_snap(edges.as_bytes(), "".as_bytes()).unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(original, vec![1000000, 5, 42]);
        assert!(g.has_edge(VertexId(0), VertexId(1)));
    }

    #[test]
    fn names_with_spaces_roundtrip() {
        let mut b = GraphBuilder::new();
        let v = b.add_named_vertex("Ron Weasley", "justice");
        let u = b.add_named_vertex("Draco Malfoy", "evil");
        b.add_edge(v, u);
        let g = b.build();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let g2 = read_graph(&buf[..]).unwrap();
        assert_eq!(g2.vertex_by_name("Ron Weasley"), Some(v));
    }
}
