//! The interaction graph (paper Definition 1): nodes are automation rules,
//! directed edges are "action-trigger" correlations, node features are text
//! embeddings, and the graph label says whether the interaction is vulnerable.

use crate::rule::{Platform, Rule};
use crate::vuln::VulnKind;
use fexiot_tensor::matrix::Matrix;

/// A node in an interaction graph: one automation rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleNode {
    pub rule: Rule,
    /// Feature vector (word/sentence embedding, platform-dependent dim).
    pub features: Vec<f64>,
}

/// Label attached to a graph sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphLabel {
    /// True if any interaction vulnerability is present.
    pub vulnerable: bool,
    /// The specific vulnerabilities found (empty for benign graphs).
    pub kinds: Vec<VulnKind>,
}

impl GraphLabel {
    pub fn benign() -> Self {
        Self {
            vulnerable: false,
            kinds: Vec::new(),
        }
    }

    pub fn vulnerable(kinds: Vec<VulnKind>) -> Self {
        Self {
            vulnerable: !kinds.is_empty(),
            kinds,
        }
    }
}

/// A directed interaction graph over automation rules.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionGraph {
    pub nodes: Vec<RuleNode>,
    /// Directed edges `(from, to)`: `from`'s action can trigger `to`.
    pub edges: Vec<(usize, usize)>,
    /// Ground-truth label, if known.
    pub label: Option<GraphLabel>,
}

impl InteractionGraph {
    pub fn new(nodes: Vec<RuleNode>, edges: Vec<(usize, usize)>) -> Self {
        let n = nodes.len();
        for &(a, b) in &edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of bounds for {n} nodes");
        }
        Self {
            nodes,
            edges,
            label: None,
        }
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Outgoing neighbor lists.
    pub fn out_neighbors(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for &(a, b) in &self.edges {
            adj[a].push(b);
        }
        adj
    }

    /// Writes the symmetrically normalized adjacency with self-loops,
    /// `D^{-1/2} (A + I) D^{-1/2}`, for GCN propagation, into `out`
    /// (reshaped to `n × n`): `A + I` first, then each row's degree from
    /// it, then every entry scaled in place as
    /// `(d_i^{-1/2} · a_ij) · d_j^{-1/2}`. A row's `d_i^{-1/2}` waits on its
    /// diagonal, whose `A + I` entry is 1, until every degree is known.
    pub fn normalized_adjacency_into(&self, out: &mut Matrix) {
        let n = self.nodes.len();
        self.gin_adjacency_into(0.0, out);
        for i in 0..n {
            let d: f64 = out.row(i).iter().sum();
            out[(i, i)] = if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 };
        }
        for i in 0..n {
            let di = out[(i, i)];
            for j in (0..n).filter(|&j| j != i) {
                out[(i, j)] = di * out[(i, j)] * out[(j, j)];
            }
        }
        for i in 0..n {
            let di = out[(i, i)];
            out[(i, i)] = di * 1.0 * di;
        }
    }

    /// Writes the GIN aggregation matrix `A + (1 + eps) I` (undirected,
    /// eps = 0 gives GIN-0) into `out`, reshaped to `n × n`.
    pub fn gin_adjacency_into(&self, eps: f64, out: &mut Matrix) {
        let n = self.nodes.len();
        out.reset(n, n);
        for i in 0..n {
            out[(i, i)] = 1.0 + eps;
        }
        for &(u, v) in &self.edges {
            if u != v {
                out[(u, v)] = 1.0;
                out[(v, u)] = 1.0;
            }
        }
    }

    /// Writes the node feature matrix into `out`, reshaped to
    /// `n × d`; all nodes must share a feature dimension.
    ///
    /// # Panics
    /// Panics on an empty graph, or if node feature dims differ
    /// (heterogeneous graphs must go through per-type projection first).
    pub fn feature_matrix_into(&self, out: &mut Matrix) {
        assert!(!self.nodes.is_empty(), "feature_matrix: empty graph");
        let d = self.nodes[0].features.len();
        out.reset(self.nodes.len(), d);
        for (i, n) in self.nodes.iter().enumerate() {
            assert_eq!(
                n.features.len(),
                d,
                "heterogeneous feature dims; project first"
            );
            out.row_mut(i).copy_from_slice(&n.features);
        }
    }

    /// The set of platforms present in this graph.
    pub fn platforms(&self) -> Vec<Platform> {
        let mut ps: Vec<Platform> = self.nodes.iter().map(|n| n.rule.platform).collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    /// True if the induced subgraph over `keep` (node indices) is connected
    /// when edges are viewed as undirected. Empty sets are not connected; a
    /// repeated index counts once.
    pub fn is_connected_subset(&self, keep: &[usize]) -> bool {
        self.component_count_subset(keep) == 1
    }

    /// Number of connected components of the induced subgraph over `keep`
    /// (undirected view). Zero for an empty set.
    ///
    /// One pass of union-find over the edge list: every node of `keep`
    /// starts as its own component and every edge inside `keep` joining two
    /// of them removes one, so no neighbour list is built.
    pub fn component_count_subset(&self, keep: &[usize]) -> usize {
        const OUT: usize = usize::MAX;
        let mut parent = vec![OUT; self.nodes.len()];
        let mut components = 0;
        for &i in keep {
            if parent[i] == OUT {
                parent[i] = i;
                components += 1;
            }
        }
        let root = |parent: &mut [usize], mut x: usize| {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        };
        for &(a, b) in &self.edges {
            if parent[a] == OUT || parent[b] == OUT {
                continue;
            }
            let (ra, rb) = (root(&mut parent, a), root(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
                components -= 1;
            }
        }
        components
    }

    /// Induced subgraph over the given node indices (preserving their order).
    /// Edges are remapped; the label is dropped.
    pub fn induced_subgraph(&self, keep: &[usize]) -> InteractionGraph {
        let mut remap = vec![usize::MAX; self.nodes.len()];
        for (new_idx, &old) in keep.iter().enumerate() {
            remap[old] = new_idx;
        }
        let nodes: Vec<RuleNode> = keep.iter().map(|&i| self.nodes[i].clone()).collect();
        let edges: Vec<(usize, usize)> = self
            .edges
            .iter()
            .filter(|&&(a, b)| remap[a] != usize::MAX && remap[b] != usize::MAX)
            .map(|&(a, b)| (remap[a], remap[b]))
            .collect();
        InteractionGraph::new(nodes, edges)
    }

    /// Nodes reachable from `start` following directed edges (incl. start).
    pub fn reachable_from(&self, start: usize) -> Vec<usize> {
        let adj = self.out_neighbors();
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        visited[start] = true;
        let mut out = Vec::new();
        while let Some(u) = stack.pop() {
            out.push(u);
            for &v in &adj[u] {
                if !visited[v] {
                    visited[v] = true;
                    stack.push(v);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// True if the directed graph contains a cycle.
    pub fn has_cycle(&self) -> bool {
        let n = self.nodes.len();
        let adj = self.out_neighbors();
        // 0 = unvisited, 1 = on stack, 2 = done.
        let mut state = vec![0u8; n];
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            // Iterative DFS with explicit stack of (node, neighbor cursor).
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            state[start] = 1;
            while let Some(&mut (u, ref mut cursor)) = stack.last_mut() {
                if *cursor < adj[u].len() {
                    let v = adj[u][*cursor];
                    *cursor += 1;
                    match state[v] {
                        0 => {
                            state[v] = 1;
                            stack.push((v, 0));
                        }
                        1 => return true,
                        _ => {}
                    }
                } else {
                    state[u] = 2;
                    stack.pop();
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceKind as K, Location as L};
    use crate::rule::{dev, Command, Trigger};
    use fexiot_tensor::rng::Rng;
    use proptest::prelude::*;

    fn node(id: u32) -> RuleNode {
        RuleNode {
            rule: Rule {
                id,
                platform: Platform::Ifttt,
                trigger: Trigger::Manual,
                actions: vec![Command {
                    device: dev(K::Light, L::Kitchen),
                    activate: true,
                }],
                text: format!("rule {id}"),
            },
            features: vec![id as f64, 1.0],
        }
    }

    fn chain(n: usize) -> InteractionGraph {
        let nodes = (0..n).map(|i| node(i as u32)).collect();
        let edges = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        InteractionGraph::new(nodes, edges)
    }

    #[test]
    fn normalized_adjacency_rows_are_finite_and_symmetric() {
        let g = chain(4);
        let mut a = Matrix::default();
        g.normalized_adjacency_into(&mut a);
        assert!(a.is_finite());
        for i in 0..4 {
            for j in 0..4 {
                assert!((a[(i, j)] - a[(j, i)]).abs() < 1e-12);
            }
        }
        // Self-loops present.
        assert!(a[(0, 0)] > 0.0);
    }

    #[test]
    fn cycle_detection() {
        let mut g = chain(3);
        assert!(!g.has_cycle());
        g.edges.push((2, 0));
        assert!(g.has_cycle());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = chain(2);
        g.edges.push((1, 1));
        assert!(g.has_cycle());
    }

    #[test]
    fn reachability() {
        let g = chain(4);
        assert_eq!(g.reachable_from(1), vec![1, 2, 3]);
        assert_eq!(g.reachable_from(3), vec![3]);
    }

    #[test]
    fn connected_subset_checks() {
        let g = chain(4);
        assert!(g.is_connected_subset(&[0, 1, 2]));
        assert!(!g.is_connected_subset(&[0, 2]));
        assert!(!g.is_connected_subset(&[]));
        assert!(g.is_connected_subset(&[2]));
        // A repeated index counts once, as `component_count_subset` counts it.
        assert!(g.is_connected_subset(&[0, 0, 1]));
        assert!(!g.is_connected_subset(&[0, 2, 2]));
    }

    #[test]
    fn induced_subgraph_remaps_edges() {
        let g = chain(4);
        let sub = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edges, vec![(0, 1), (1, 2)]);
        assert_eq!(sub.nodes[0].rule.id, 1);
    }

    /// Undirected neighbour lists, sorted and deduplicated, without
    /// self-loops: what the search oracles below walk.
    fn undirected_neighbors(g: &InteractionGraph) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); g.nodes.len()];
        for &(a, b) in &g.edges {
            if a != b {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        adj
    }

    /// Components by breadth-first search over rebuilt neighbour lists,
    /// as `component_count_subset` counted them before union-find.
    fn components_by_search(g: &InteractionGraph, keep: &[usize]) -> usize {
        if keep.is_empty() {
            return 0;
        }
        let adj = undirected_neighbors(g);
        let mut visited = vec![false; g.nodes.len()];
        let in_set = |x: usize| keep.contains(&x);
        let mut components = 0;
        for &start in keep {
            if visited[start] {
                continue;
            }
            components += 1;
            let mut stack = vec![start];
            visited[start] = true;
            while let Some(u) = stack.pop() {
                for &v in &adj[u] {
                    if in_set(v) && !visited[v] {
                        visited[v] = true;
                        stack.push(v);
                    }
                }
            }
        }
        components
    }

    /// The search `is_connected_subset` ran before it counted components:
    /// it compares the distinct nodes reached with `keep.len()`, so it
    /// holds only for distinct indices.
    fn connected_by_search(g: &InteractionGraph, keep: &[usize]) -> bool {
        if keep.is_empty() {
            return false;
        }
        let in_set = |x: usize| keep.contains(&x);
        let adj = undirected_neighbors(g);
        let mut visited = vec![false; g.nodes.len()];
        let mut stack = vec![keep[0]];
        visited[keep[0]] = true;
        let mut count = 0;
        while let Some(u) = stack.pop() {
            count += 1;
            for &v in &adj[u] {
                if in_set(v) && !visited[v] {
                    visited[v] = true;
                    stack.push(v);
                }
            }
        }
        count == keep.len()
    }

    /// `D^{-1/2} (A + I) D^{-1/2}` as it was built before it took one
    /// buffer: `A + I` in one matrix, each degree summed over its row, the
    /// scaled entries in a second matrix.
    fn normalized_adjacency(g: &InteractionGraph) -> Matrix {
        let n = g.nodes.len();
        let mut a = Matrix::eye(n);
        for &(u, v) in &g.edges {
            if u != v {
                a[(u, v)] = 1.0;
                a[(v, u)] = 1.0;
            }
        }
        let mut deg_inv_sqrt = vec![0.0; n];
        for i in 0..n {
            let d: f64 = (0..n).map(|j| a[(i, j)]).sum();
            deg_inv_sqrt[i] = if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 };
        }
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                out[(i, j)] = deg_inv_sqrt[i] * a[(i, j)] * deg_inv_sqrt[j];
            }
        }
        out
    }

    /// A chain's nodes on 1–79 nodes with random directed edges instead:
    /// self-loops, repeats, both directions and isolated nodes all occur.
    fn random_graph(rng: &mut Rng) -> InteractionGraph {
        let n = rng.range(1, 80);
        let mut g = chain(n);
        let density = rng.uniform(0.0, 3.0 / n as f64);
        g.edges.clear();
        for _ in 0..n * n {
            if rng.bool(density) {
                g.edges.push((rng.usize(n), rng.usize(n)));
            }
        }
        g
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Union-find counts what the search counted, on random graphs with
        // self-loops and repeated edges, over random subsets in any order
        // and with repeated indices.
        #[test]
        fn component_count_matches_search(seed in 0u64..1_000_000) {
            let mut rng = Rng::seed_from_u64(seed);
            let g = random_graph(&mut rng);
            let n = g.node_count();
            for _ in 0..8 {
                let p = rng.f64();
                let mut keep: Vec<usize> = (0..n).filter(|_| rng.bool(p)).collect();
                if rng.bool(0.3) && !keep.is_empty() {
                    keep.push(keep[rng.usize(keep.len())]);
                }
                rng.shuffle(&mut keep);
                prop_assert_eq!(
                    g.component_count_subset(&keep),
                    components_by_search(&g, &keep)
                );
            }
        }

        // On distinct indices, in any order, the component count answers
        // what the old search answered.
        #[test]
        fn connected_subset_matches_search(seed in 0u64..1_000_000) {
            let mut rng = Rng::seed_from_u64(seed);
            let g = random_graph(&mut rng);
            let n = g.node_count();
            for _ in 0..8 {
                let p = rng.f64();
                let mut keep: Vec<usize> = (0..n).filter(|_| rng.bool(p)).collect();
                rng.shuffle(&mut keep);
                prop_assert_eq!(g.is_connected_subset(&keep), connected_by_search(&g, &keep));
            }
        }

        // The one-buffer build has the two-buffer build's bits, into a
        // buffer that last held another graph's matrix.
        #[test]
        fn normalized_adjacency_into_equals_the_two_buffer_build(seed in 0u64..1_000_000) {
            let mut rng = Rng::seed_from_u64(seed);
            let mut out = Matrix::full(7, 3, f64::NAN);
            for _ in 0..3 {
                let g = random_graph(&mut rng);
                g.normalized_adjacency_into(&mut out);
                prop_assert_eq!(bits(&out), bits(&normalized_adjacency(&g)));
            }
        }
    }

    #[test]
    fn feature_matrix_shape() {
        let g = chain(3);
        let mut x = Matrix::full(1, 9, 5.0);
        g.feature_matrix_into(&mut x);
        assert_eq!(x.shape(), (3, 2));
        assert_eq!(x[(2, 0)], 2.0);
    }

    #[test]
    fn gin_adjacency_diagonal() {
        let g = chain(3);
        let mut a = Matrix::full(4, 4, 9.0);
        g.gin_adjacency_into(0.5, &mut a);
        assert!((a[(0, 0)] - 1.5).abs() < 1e-12);
        assert_eq!(a[(0, 1)], 1.0);
        assert_eq!(a[(1, 0)], 1.0);
        assert_eq!(a[(0, 2)], 0.0);
    }
}
