//! Graph serialization: a plain edge-list text format and JSON.
//!
//! The text format is one `u v` pair per line, `#` comments and blank
//! lines ignored, with an optional leading `n <count>` line for isolated
//! trailing nodes. It round-trips any [`Graph`] and lets the CLI run
//! experiments on user-supplied topologies (e.g. real contact traces).

use crate::static_graph::{Graph, GraphBuilder, NodeId};

/// Errors from parsing the edge-list format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line didn't contain two integers (or a valid `n` header).
    BadLine { line_no: usize, content: String },
    /// An endpoint exceeded the declared node count.
    OutOfRange { line_no: usize, node: u64 },
    /// A self loop was declared.
    SelfLoop { line_no: usize, node: NodeId },
    /// An `n` header declared more nodes than a [`NodeId`] can index.
    TooManyNodes { line_no: usize, n: u64 },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadLine { line_no, content } => {
                write!(f, "line {line_no}: cannot parse {content:?} as `u v`")
            }
            ParseError::OutOfRange { line_no, node } => {
                write!(f, "line {line_no}: node {node} out of declared range")
            }
            ParseError::SelfLoop { line_no, node } => {
                write!(f, "line {line_no}: self loop at node {node}")
            }
            ParseError::TooManyNodes { line_no, n } => {
                write!(f, "line {line_no}: node count {n} exceeds the u32 id space")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Serialize a graph to the edge-list text format.
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = String::with_capacity(g.edge_count() * 8 + 32);
    out.push_str(&format!("n {}\n", g.node_count()));
    for (u, v) in g.edges() {
        out.push_str(&format!("{u} {v}\n"));
    }
    out
}

/// Parse the edge-list text format. Every edge is checked against the
/// final node count — the last `n` line wherever it appears, else the
/// largest id plus one — so malformed input is an error, never a panic.
pub fn from_edge_list(text: &str) -> Result<Graph, ParseError> {
    let mut declared_n: Option<u64> = None;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    // The largest endpoint so far and the line it first appeared on.
    let mut max_node: Option<(NodeId, usize)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad_line = || ParseError::BadLine { line_no, content: raw.to_string() };
        let mut parts = line.split_whitespace();
        let first = parts.next().expect("line is nonempty after the trim/skip above");
        let second: u64 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad_line)?;
        if parts.next().is_some() {
            return Err(bad_line());
        }
        if first == "n" {
            if second > u64::from(NodeId::MAX) {
                return Err(ParseError::TooManyNodes { line_no, n: second });
            }
            declared_n = Some(second);
            continue;
        }
        let u: u64 = first.parse().map_err(|_| bad_line())?;
        // Ids must stay below the largest node count a NodeId can index.
        let to_node = |x: u64| {
            NodeId::try_from(x)
                .ok()
                .filter(|&id| id < NodeId::MAX)
                .ok_or(ParseError::OutOfRange { line_no, node: x })
        };
        let (u, v) = (to_node(u)?, to_node(second)?);
        if u == v {
            return Err(ParseError::SelfLoop { line_no, node: u });
        }
        let hi = u.max(v);
        if max_node.is_none_or(|(m, _)| hi > m) {
            max_node = Some((hi, line_no));
        }
        edges.push((u, v));
    }
    let n = match (declared_n, max_node) {
        (Some(n), Some((m, line_no))) if u64::from(m) >= n => {
            return Err(ParseError::OutOfRange { line_no, node: u64::from(m) });
        }
        (Some(n), _) => n as usize,
        (None, max) => max.map_or(0, |(m, _)| m as usize + 1),
    };
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    Ok(b.build())
}

/// Serialize a graph to JSON: `{"offsets":[…],"adjacency":[…]}` (the CSR
/// representation). Hand-rolled — the offline build has no serialization
/// framework available, and the format is two integer arrays.
pub fn to_json(g: &Graph) -> String {
    let (offsets, adjacency) = g.csr_parts();
    let mut out = String::with_capacity(16 + 8 * (offsets.len() + adjacency.len()));
    out.push_str("{\"offsets\":");
    push_u32_array(&mut out, offsets);
    out.push_str(",\"adjacency\":");
    push_u32_array(&mut out, adjacency);
    out.push('}');
    out
}

fn push_u32_array(out: &mut String, xs: &[u32]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&x.to_string());
    }
    out.push(']');
}

/// Parse a graph from its JSON representation, validating the CSR
/// invariants (the JSON may come from untrusted input).
pub fn from_json(text: &str) -> Result<Graph, String> {
    let mut p = JsonCursor { bytes: text.as_bytes(), pos: 0 };
    p.expect(b'{')?;
    let mut offsets: Option<Vec<u32>> = None;
    let mut adjacency: Option<Vec<u32>> = None;
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        let arr = p.u32_array()?;
        match key.as_str() {
            "offsets" => offsets = Some(arr),
            "adjacency" => adjacency = Some(arr),
            other => return Err(format!("unknown key {other:?} in graph JSON")),
        }
        if !p.consume(b',') {
            break;
        }
    }
    p.expect(b'}')?;
    p.end()?;
    let offsets = offsets.ok_or("graph JSON missing \"offsets\"")?;
    let adjacency = adjacency.ok_or("graph JSON missing \"adjacency\"")?;
    if offsets.is_empty() {
        return Err("offset array must have n + 1 entries".to_string());
    }
    let g = Graph::from_csr_parts_unchecked(offsets, adjacency);
    g.validate()?;
    Ok(g)
}

/// Minimal cursor over the fixed JSON shape `{"key":[u32,…],…}`.
struct JsonCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonCursor<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, want: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.consume(want) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", want as char, self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| e.to_string())?
                    .to_string();
                self.pos += 1;
                return Ok(s);
            }
            // Keys in this format never contain escapes.
            if b == b'\\' {
                return Err(format!("unsupported escape at byte {}", self.pos));
            }
            self.pos += 1;
        }
        Err("unterminated string".to_string())
    }

    fn u32_array(&mut self) -> Result<Vec<u32>, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.consume(b']') {
            return Ok(out);
        }
        loop {
            out.push(self.u32_value()?);
            if self.consume(b']') {
                return Ok(out);
            }
            self.expect(b',')?;
        }
    }

    fn u32_value(&mut self) -> Result<u32, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected integer at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ASCII")
            .parse::<u32>()
            .map_err(|e| format!("integer at byte {start}: {e}"))
    }

    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn edge_list_round_trip() {
        for g in [gen::clique(6), gen::path(5), gen::line_of_stars(3, 3), gen::star(8)] {
            let text = to_edge_list(&g);
            let back = from_edge_list(&text).expect("exported edge list parses back");
            assert_eq!(g, back);
        }
    }

    #[test]
    fn edge_list_with_comments_and_blanks() {
        let text = "# a triangle\nn 3\n\n0 1\n1 2\n# done\n2 0\n";
        let g = from_edge_list(text).expect("edge list with comments parses");
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn edge_list_without_header_infers_n() {
        let g = from_edge_list("0 1\n1 4\n").expect("sparse ids parse");
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(2), 0); // isolated intermediate node
    }

    #[test]
    fn edge_list_errors() {
        assert!(matches!(from_edge_list("0 zebra"), Err(ParseError::BadLine { line_no: 1, .. })));
        assert!(matches!(
            from_edge_list("n 2\n0 5"),
            Err(ParseError::OutOfRange { line_no: 2, node: 5 })
        ));
        assert!(matches!(from_edge_list("3 3"), Err(ParseError::SelfLoop { line_no: 1, node: 3 })));
        assert!(matches!(from_edge_list("0 1 2"), Err(ParseError::BadLine { .. })));
        assert!(matches!(from_edge_list("n 3 4"), Err(ParseError::BadLine { .. })));
    }

    #[test]
    fn edges_are_checked_against_the_final_node_count() {
        // A header after the edges still bounds them.
        assert_eq!(
            from_edge_list("0 1\n5 6\nn 3\n"),
            Err(ParseError::OutOfRange { line_no: 2, node: 6 })
        );
        // The last header wins, in either direction.
        assert!(from_edge_list("n 2\n0 5\nn 6\n").is_ok());
        assert!(from_edge_list("n 9\n0 5\nn 5\n").is_err());
        assert_eq!(
            from_edge_list("n 5000000000\n"),
            Err(ParseError::TooManyNodes { line_no: 1, n: 5_000_000_000 })
        );
        // An id of u32::MAX would need 2^32 nodes.
        assert_eq!(
            from_edge_list("0 4294967295\n"),
            Err(ParseError::OutOfRange { line_no: 1, node: 4_294_967_295 })
        );
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = from_edge_list("").expect("an empty edge list is a valid empty graph");
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn json_round_trip() {
        let g = gen::hypercube(3);
        let back = from_json(&to_json(&g)).expect("JSON export parses back");
        assert_eq!(g, back);
    }

    #[test]
    fn parse_error_display() {
        let e = from_edge_list("oops").unwrap_err();
        assert!(e.to_string().contains("line 1"));
    }
}
