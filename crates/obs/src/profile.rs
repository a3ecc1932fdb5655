//! Inclusive/exclusive span-time profiles and flamegraph-compatible
//! collapsed-stack export, derived from a registry [`Snapshot`]'s span tree.
//!
//! * **Inclusive** time is a span's recorded `elapsed_us`.
//! * **Exclusive** (self) time is inclusive minus the sum of the direct
//!   children's inclusive time, saturated at zero (children overlapping
//!   their parent's clock edge can nominally exceed it by a few µs).
//!
//! The collapsed format is the standard flamegraph.pl / inferno input: one
//! line per stack, `frame;frame;frame <value>`, where the value here is the
//! stack's aggregated exclusive microseconds. Span names are sanitized into
//! frames by replacing `;` and whitespace (the format's separators) with
//! `_`, and instances of the same stack path are summed, so output order and
//! content are deterministic given the span tree.

use crate::json::Json;
use crate::registry::{Snapshot, SpanNode};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Aggregated statistics for one span path (all instances summed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// `;`-joined sanitized frames from root to this span.
    pub path: String,
    /// Number of span instances with this path.
    pub count: u64,
    /// Total wall-clock microseconds (children included).
    pub inclusive_us: u64,
    /// Total microseconds spent in the span itself (children excluded).
    pub exclusive_us: u64,
}

/// Sanitizes one span name into a collapsed-stack frame: `;` and whitespace
/// are the format's separators, so they become `_`.
pub fn frame(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

fn walk(node: &SpanNode, prefix: &str, out: &mut BTreeMap<String, (u64, u64, u64)>) {
    let path = if prefix.is_empty() {
        frame(&node.name)
    } else {
        format!("{prefix};{}", frame(&node.name))
    };
    let child_us: u64 = node.children.iter().map(|c| c.elapsed_us).sum();
    let exclusive = node.elapsed_us.saturating_sub(child_us);
    let entry = out.entry(path.clone()).or_insert((0, 0, 0));
    entry.0 += 1;
    entry.1 += node.elapsed_us;
    entry.2 += exclusive;
    for child in &node.children {
        walk(child, &path, out);
    }
}

/// Per-path profile of a snapshot's span tree, sorted by path.
pub fn profile(snap: &Snapshot) -> Vec<SpanStat> {
    let mut agg = BTreeMap::new();
    for root in &snap.roots {
        walk(root, "", &mut agg);
    }
    agg.into_iter()
        .map(|(path, (count, inclusive_us, exclusive_us))| SpanStat {
            path,
            count,
            inclusive_us,
            exclusive_us,
        })
        .collect()
}

/// Renders the snapshot's span tree as collapsed stacks (one
/// `frame;frame value` line per path, value = exclusive µs, sorted by path;
/// trailing newline when non-empty).
pub fn collapsed_stacks(snap: &Snapshot) -> String {
    let mut out = String::new();
    for stat in profile(snap) {
        out.push_str(&format!("{} {}\n", stat.path, stat.exclusive_us));
    }
    out
}

/// Writes [`collapsed_stacks`] to `path` (parent directories created as
/// needed); returns the path written.
pub fn write_flame(path: &Path, snap: &Snapshot) -> io::Result<PathBuf> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, collapsed_stacks(snap))?;
    Ok(path.to_path_buf())
}

/// Parses collapsed-stack text back into `(stack_path, value)` pairs.
/// The inverse of [`collapsed_stacks`]; used by the round-trip tests.
pub fn parse_collapsed(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (stack, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: missing value separator", i + 1))?;
        let value: u64 = value
            .parse()
            .map_err(|e| format!("line {}: bad value {value:?}: {e}", i + 1))?;
        if stack.is_empty() {
            return Err(format!("line {}: empty stack", i + 1));
        }
        out.push((stack.to_string(), value));
    }
    Ok(out)
}

/// Every sanitized span path present in a `fexiot-obs/v4` report document,
/// sorted and deduplicated — the reference set collapsed-stack lines must
/// round-trip against.
pub fn report_span_paths(doc: &Json) -> Vec<String> {
    fn walk_json(node: &Json, prefix: &str, out: &mut Vec<String>) {
        let name = node.get("name").and_then(Json::as_str).unwrap_or("?");
        let path = if prefix.is_empty() {
            frame(name)
        } else {
            format!("{prefix};{}", frame(name))
        };
        if let Some(children) = node.get("children").and_then(Json::as_arr) {
            for c in children {
                walk_json(c, &path, out);
            }
        }
        out.push(path);
    }
    let mut out = Vec::new();
    if let Some(spans) = doc.get("spans").and_then(Json::as_arr) {
        for s in spans {
            walk_json(s, "", &mut out);
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, us: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.into(),
            elapsed_us: us,
            children,
        }
    }

    fn snap(roots: Vec<SpanNode>) -> Snapshot {
        Snapshot {
            roots,
            ..Snapshot::default()
        }
    }

    #[test]
    fn exclusive_time_subtracts_children_and_saturates() {
        let s = snap(vec![node(
            "root",
            100,
            vec![node("a", 30, vec![]), node("b", 90, vec![])],
        )]);
        let prof = profile(&s);
        let by_path: std::collections::HashMap<_, _> =
            prof.iter().map(|p| (p.path.as_str(), p)).collect();
        // 30 + 90 > 100: exclusive saturates at zero instead of wrapping.
        assert_eq!(by_path["root"].exclusive_us, 0);
        assert_eq!(by_path["root"].inclusive_us, 100);
        assert_eq!(by_path["root;a"].exclusive_us, 30);
        assert_eq!(by_path["root;b"].exclusive_us, 90);
    }

    #[test]
    fn repeated_paths_aggregate() {
        let s = snap(vec![node(
            "round",
            100,
            vec![node("client", 20, vec![]), node("client", 30, vec![])],
        )]);
        let prof = profile(&s);
        let client = prof.iter().find(|p| p.path == "round;client").unwrap();
        assert_eq!(client.count, 2);
        assert_eq!(client.inclusive_us, 50);
        let root = prof.iter().find(|p| p.path == "round").unwrap();
        assert_eq!(root.exclusive_us, 50);
    }

    #[test]
    fn frames_are_sanitized_and_collapsed_round_trips() {
        let s = snap(vec![node("a b;c", 10, vec![node("leaf", 4, vec![])])]);
        let text = collapsed_stacks(&s);
        let parsed = parse_collapsed(&text).expect("own output parses");
        assert_eq!(
            parsed,
            vec![("a_b_c".to_string(), 6), ("a_b_c;leaf".to_string(), 4)]
        );
    }

    #[test]
    fn report_paths_cover_collapsed_lines() {
        let s = snap(vec![node(
            "pipeline",
            100,
            vec![node("pipeline.corpus", 40, vec![])],
        )]);
        let doc =
            crate::report::to_json(&s, "t", crate::report::Timing::Include, &Default::default());
        let paths = report_span_paths(&doc);
        for (stack, _) in parse_collapsed(&collapsed_stacks(&s)).unwrap() {
            assert!(paths.contains(&stack), "missing {stack}");
        }
    }

    #[test]
    fn malformed_collapsed_lines_are_rejected() {
        assert!(parse_collapsed("no-value-here").is_err());
        assert!(parse_collapsed("stack notanumber").is_err());
        assert!(parse_collapsed(" 42").is_err());
    }
}
