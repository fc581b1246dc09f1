//! The tensor dependency DAG: topology queries Algorithm 2 depends on.
//!
//! Two graph-theoretic notions carry the paper's scheduling logic:
//!
//! - a **transitive edge** (footnote 5): an edge `u→v` that is *not* on the
//!   longest path between `u` and `v` — i.e. some other path `u→…→v` of
//!   length ≥ 2 exists. Transitive edges are exactly the *delayed downstream
//!   dependencies* (Challenge 1) that pipelining cannot serve;
//! - the **longest path** between the endpoints of a transitive edge: if any
//!   interior node on it is contraction-dominant (or breaks rank sharing),
//!   the delayed consumer cannot be served by holding tiles in the pipeline
//!   buffer, and the edge becomes `Delayed_writeback` (Algorithm 2).

use crate::edge::{Edge, ExternalInput, TensorMeta};
use crate::node::{OpKind, OpNode};
use cello_tensor::einsum::EinsumSpec;
use cello_tensor::shape::RankId;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Index of a node within its DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// Index of an edge within its DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub usize);

/// A DAG of tensor operations (paper Fig 1).
///
/// Besides the node and edge lists it keeps an adjacency index (the out-
/// and in-edge ids of every node), built on the first topology query after
/// the last change. Every list is in `EdgeId` order — the order the
/// whole-edge-list scans it replaces visited edges in. The longest-path
/// tie-break and every consumer of `out_edges`/`in_edges` therefore see
/// exactly the order they saw before the index existed, which keeps
/// schedule keys bit-identical. A DAG that is only built and fingerprinted
/// (a schedule-cache hit) never pays for the index.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TensorDag {
    nodes: Vec<OpNode>,
    edges: Vec<Edge>,
    externals: Vec<ExternalInput>,
    /// Adjacency index; reset by every node or edge insertion.
    adjacency: OnceLock<Adjacency>,
    /// Skew threshold used for node dominance (SCORE default 4.0).
    pub skew_threshold: f64,
}

/// Per-node edge lists in CSR form: node `n`'s out-edges are
/// `out[out_start[n]..out_start[n + 1]]`, its in-edges likewise.
#[derive(Clone, Debug)]
struct Adjacency {
    out_start: Vec<usize>,
    out: Vec<EdgeId>,
    in_start: Vec<usize>,
    inc: Vec<EdgeId>,
}

impl Adjacency {
    fn build(nodes: usize, edges: &[Edge]) -> Self {
        let (out_start, out) = Self::bucket(nodes, edges, |e| e.src);
        let (in_start, inc) = Self::bucket(nodes, edges, |e| e.dst);
        Self {
            out_start,
            out,
            in_start,
            inc,
        }
    }

    /// Counting sort of edge ids by `key`; stable, so every bucket stays in
    /// `EdgeId` order.
    fn bucket(
        nodes: usize,
        edges: &[Edge],
        key: impl Fn(&Edge) -> usize,
    ) -> (Vec<usize>, Vec<EdgeId>) {
        let mut start = vec![0usize; nodes + 1];
        for e in edges {
            start[key(e) + 1] += 1;
        }
        for n in 0..nodes {
            start[n + 1] += start[n];
        }
        let mut fill = start[..nodes].to_vec();
        let mut ids = vec![EdgeId(0); edges.len()];
        for (i, e) in edges.iter().enumerate() {
            let slot = &mut fill[key(e)];
            ids[*slot] = EdgeId(i);
            *slot += 1;
        }
        (start, ids)
    }
}

impl Default for TensorDag {
    fn default() -> Self {
        Self::new()
    }
}

impl TensorDag {
    /// Empty DAG with the default skew threshold.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            edges: Vec::new(),
            externals: Vec::new(),
            adjacency: OnceLock::new(),
            skew_threshold: 4.0,
        }
    }

    /// Adds an operation node; returns its id.
    pub fn add_op(
        &mut self,
        name: impl Into<String>,
        spec: EinsumSpec,
        kind: OpKind,
        output: TensorMeta,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes
            .push(OpNode::new(name, spec, kind, output, self.skew_threshold));
        self.adjacency.take();
        id
    }

    /// Adds a producer→consumer edge; `dst` must be a later node than `src`
    /// (nodes are inserted in a topological order by construction).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, dst_ranks: &[&str]) -> EdgeId {
        assert!(src.0 < self.nodes.len() && dst.0 < self.nodes.len());
        assert!(
            src.0 < dst.0,
            "edges must go forward in insertion order ({} -> {})",
            src.0,
            dst.0
        );
        self.push_edge(Edge::new(src.0, dst.0, dst_ranks))
    }

    /// Adds a pre-built edge (for layout-annotated edges).
    pub fn add_edge_full(&mut self, edge: Edge) -> EdgeId {
        assert!(edge.src < edge.dst, "edges must go forward");
        assert!(edge.dst < self.nodes.len());
        self.push_edge(edge)
    }

    /// Appends a validated forward edge.
    fn push_edge(&mut self, edge: Edge) -> EdgeId {
        let id = EdgeId(self.edges.len());
        self.edges.push(edge);
        self.adjacency.take();
        id
    }

    /// Registers an external DRAM-resident input tensor and its consumers.
    pub fn add_external(&mut self, meta: TensorMeta, consumers: &[(NodeId, &[&str])]) {
        self.externals.push(ExternalInput {
            meta,
            consumers: consumers
                .iter()
                .map(|(n, ranks)| (n.0, ranks.iter().map(|r| RankId::new(r)).collect()))
                .collect(),
        });
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &OpNode {
        &self.nodes[id.0]
    }

    /// Edge accessor.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &OpNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// All edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i), e))
    }

    /// External inputs.
    pub fn externals(&self) -> &[ExternalInput] {
        &self.externals
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    fn adjacency(&self) -> &Adjacency {
        self.adjacency
            .get_or_init(|| Adjacency::build(self.nodes.len(), &self.edges))
    }

    /// Outgoing edges of a node, in `EdgeId` order.
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        let a = self.adjacency();
        &a.out[a.out_start[n.0]..a.out_start[n.0 + 1]]
    }

    /// Incoming edges of a node, in `EdgeId` order.
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        let a = self.adjacency();
        &a.inc[a.in_start[n.0]..a.in_start[n.0 + 1]]
    }

    /// Topological order. Nodes are inserted topologically (enforced by
    /// `add_edge`), so this is just insertion order — kept as a method so the
    /// invariant is assertable.
    pub fn topo_order(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).map(NodeId).collect()
    }

    /// Whether a path `from → … → to` exists (including the trivial length-1
    /// edge). `from == to` counts as reachable only via an actual cycle, which
    /// cannot exist here, so it returns `false` for distinct-free self queries.
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return false;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![from.0];
        while let Some(u) = stack.pop() {
            for &e in self.out_edges(NodeId(u)) {
                let dst = self.edges[e.0].dst;
                if dst == to.0 {
                    return true;
                }
                if !seen[dst] {
                    seen[dst] = true;
                    stack.push(dst);
                }
            }
        }
        false
    }

    /// Longest paths from `from` to every node: one O(V+E) DP over the
    /// topological order, walking the out-edge lists. A node's predecessor
    /// changes only on a strictly longer path, so among equally long paths
    /// the one through the earliest node (then the earliest edge) wins.
    pub fn longest_paths_from(&self, from: NodeId) -> LongestPaths {
        let n = self.nodes.len();
        let mut dist = vec![UNREACHED; n];
        let mut pred = vec![usize::MAX; n];
        dist[from.0] = 0;
        // Nodes are topologically ordered by index.
        for u in from.0..n {
            if dist[u] == UNREACHED {
                continue;
            }
            for &e in self.out_edges(NodeId(u)) {
                let dst = self.edges[e.0].dst;
                if dist[dst] == UNREACHED || dist[u] + 1 > dist[dst] {
                    dist[dst] = dist[u] + 1;
                    pred[dst] = u;
                }
            }
        }
        LongestPaths {
            from: from.0,
            dist,
            pred,
        }
    }

    /// Longest path length (in edges) from `from` to `to`, or `None` if
    /// unreachable.
    pub fn longest_path_len(&self, from: NodeId, to: NodeId) -> Option<usize> {
        self.longest_paths_from(from).len_to(to)
    }

    /// The longest path from `from` to `to` as a node list (inclusive of both
    /// endpoints), or `None` if unreachable.
    pub fn longest_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        self.longest_paths_from(from).path_to(to)
    }

    /// Interior nodes of the longest path between an edge's endpoints —
    /// Algorithm 2's `for pathnode ∈ longestpath(edge)` iterates these.
    pub fn longest_path_interior(&self, e: EdgeId) -> Vec<NodeId> {
        let edge = &self.edges[e.0];
        match self.longest_path(NodeId(edge.src), NodeId(edge.dst)) {
            Some(path) if path.len() > 2 => path[1..path.len() - 1].to_vec(),
            _ => Vec::new(),
        }
    }

    /// Whether an edge is *transitive*: a longer path between its endpoints
    /// exists (footnote 5: "a transitive edge is the edge not on the longest
    /// path between the source and the destination").
    pub fn edge_is_transitive(&self, e: EdgeId) -> bool {
        let edge = &self.edges[e.0];
        self.longest_paths_from(NodeId(edge.src))
            .is_transitive(NodeId(edge.dst))
    }

    /// `pathnext(node, edge)`: the immediate successor of `node` along the
    /// longest path to the edge's destination (the destination itself for a
    /// non-transitive edge). Algorithm 2 consults this node's dominance.
    pub fn pathnext(&self, e: EdgeId) -> NodeId {
        let edge = &self.edges[e.0];
        self.longest_paths_from(NodeId(edge.src))
            .pathnext(NodeId(edge.dst))
    }

    /// Brute-force transitivity oracle for testing: DFS over all paths.
    pub fn edge_is_transitive_bruteforce(&self, e: EdgeId) -> bool {
        let edge = &self.edges[e.0];
        // Search for a path src -> ... -> dst with >= 2 edges.
        fn dfs(dag: &TensorDag, cur: usize, target: usize, depth: usize) -> bool {
            if cur == target && depth >= 2 {
                return true;
            }
            if cur == target {
                return false;
            }
            dag.edges
                .iter()
                .filter(|e| e.src == cur)
                .any(|e| dfs(dag, e.dst, target, depth + 1))
        }
        self.edges
            .iter()
            .filter(|other| other.src == edge.src && other.dst != edge.dst)
            .any(|other| dfs(self, other.dst, edge.dst, 1))
    }
}

/// `dist` marker for nodes the source does not reach.
const UNREACHED: usize = usize::MAX;

/// Longest paths from one source node to every node of a [`TensorDag`]: the
/// distance and predecessor tables of [`TensorDag::longest_paths_from`].
/// Every per-pair query on the source is a walk over these tables.
#[derive(Clone, Debug)]
pub struct LongestPaths {
    from: usize,
    /// Longest distance in edges, [`UNREACHED`] when there is no path.
    dist: Vec<usize>,
    /// Predecessor on the longest path (meaningless where unreached).
    pred: Vec<usize>,
}

impl LongestPaths {
    /// Longest path length (in edges) to `to`, or `None` if `to` is the
    /// source or unreachable from it.
    pub fn len_to(&self, to: NodeId) -> Option<usize> {
        (to.0 != self.from && self.dist[to.0] != UNREACHED).then_some(self.dist[to.0])
    }

    /// The longest path to `to` as a node list (inclusive of both
    /// endpoints), or `None` if `to` is the source or unreachable from it.
    pub fn path_to(&self, to: NodeId) -> Option<Vec<NodeId>> {
        self.len_to(to)?;
        let mut path = vec![to];
        let mut cur = to.0;
        while cur != self.from {
            cur = self.pred[cur];
            path.push(NodeId(cur));
        }
        path.reverse();
        Some(path)
    }

    /// Whether a source→`to` edge would be transitive: the longest path to
    /// `to` has at least two edges.
    pub fn is_transitive(&self, to: NodeId) -> bool {
        self.len_to(to).is_some_and(|len| len >= 2)
    }

    /// The source's successor on the longest path to `to` — `to` itself
    /// when that path is a single edge or there is none.
    pub fn pathnext(&self, to: NodeId) -> NodeId {
        if self.len_to(to).is_none() {
            return to;
        }
        let mut cur = to.0;
        while self.pred[cur] != self.from {
            cur = self.pred[cur];
        }
        NodeId(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Dominance;
    use cello_tensor::shape::RankExtent;

    fn dummy_spec() -> EinsumSpec {
        EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", 100),
                RankExtent::dense("k", 8),
                RankExtent::dense("n", 8),
            ],
        )
    }

    fn dag_with(n: usize, edges: &[(usize, usize)]) -> TensorDag {
        let mut dag = TensorDag::new();
        for i in 0..n {
            dag.add_op(
                format!("op{i}"),
                dummy_spec(),
                OpKind::TensorMac,
                TensorMeta::dense(format!("T{i}"), &["m", "n"], 800),
            );
        }
        for &(s, d) in edges {
            dag.add_edge(NodeId(s), NodeId(d), &["m", "n"]);
        }
        dag
    }

    #[test]
    fn reachability() {
        let dag = dag_with(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(dag.reachable(NodeId(0), NodeId(3)));
        assert!(dag.reachable(NodeId(1), NodeId(2)));
        assert!(!dag.reachable(NodeId(3), NodeId(0)));
        assert!(!dag.reachable(NodeId(0), NodeId(0)));
    }

    #[test]
    fn longest_path_diamond() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, plus direct 0 -> 3.
        let dag = dag_with(4, &[(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]);
        assert_eq!(dag.longest_path_len(NodeId(0), NodeId(3)), Some(2));
        let p = dag.longest_path(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p[0], NodeId(0));
        assert_eq!(p[2], NodeId(3));
    }

    #[test]
    fn transitive_edge_detection() {
        let dag = dag_with(4, &[(0, 1), (0, 3), (1, 2), (2, 3)]);
        // 0->3 is transitive (0->1->2->3 exists); others are not.
        let ids: Vec<EdgeId> = dag.edges().map(|(id, _)| id).collect();
        let flags: Vec<bool> = ids.iter().map(|&e| dag.edge_is_transitive(e)).collect();
        assert_eq!(flags, vec![false, true, false, false]);
        for &e in &ids {
            assert_eq!(
                dag.edge_is_transitive(e),
                dag.edge_is_transitive_bruteforce(e),
                "mismatch on {e:?}"
            );
        }
    }

    #[test]
    fn longest_path_interior_of_transitive_edge() {
        let dag = dag_with(4, &[(0, 1), (0, 3), (1, 2), (2, 3)]);
        // Edge 0->3 has interior {1, 2}.
        let interior = dag.longest_path_interior(EdgeId(1));
        assert_eq!(interior, vec![NodeId(1), NodeId(2)]);
        // Non-transitive edge 0->1 has empty interior.
        assert!(dag.longest_path_interior(EdgeId(0)).is_empty());
    }

    #[test]
    fn pathnext_follows_longest_path() {
        let dag = dag_with(4, &[(0, 1), (0, 3), (1, 2), (2, 3)]);
        // For transitive edge 0->3, pathnext is 1 (start of the long path).
        assert_eq!(dag.pathnext(EdgeId(1)), NodeId(1));
        // For direct edge 0->1, pathnext is the destination.
        assert_eq!(dag.pathnext(EdgeId(0)), NodeId(1));
    }

    #[test]
    fn cg_iteration_shape_transitivity() {
        // Mini-CG: 1 -> 2 -> 3, 2 -> 4, 1 -> 4 (S reused by 4), 4 -> 5,
        // 4 -> 7 (via 5 -> 6 -> 7): the paper's delayed writebacks.
        let dag = dag_with(
            7,
            &[
                (0, 1), // 1->2 : S
                (1, 2), // 2->3 : Λ
                (1, 3), // 2->4 : Λ
                (0, 3), // 1->4 : S (transitive via 2)
                (3, 4), // 4->5 : R
                (4, 5), // 5->6 : Γ
                (5, 6), // 6->7 : Φ
                (3, 6), // 4->7 : R (transitive via 5,6)
            ],
        );
        let trans: Vec<bool> = dag
            .edges()
            .map(|(id, _)| dag.edge_is_transitive(id))
            .collect();
        assert_eq!(
            trans,
            vec![false, false, false, true, false, false, false, true]
        );
        // Interior of 4->7 is {5, 6}.
        assert_eq!(
            dag.longest_path_interior(EdgeId(7)),
            vec![NodeId(4), NodeId(5)]
        );
    }

    #[test]
    fn out_and_in_edges() {
        let dag = dag_with(3, &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(dag.out_edges(NodeId(0)).len(), 2);
        assert_eq!(dag.in_edges(NodeId(2)).len(), 2);
        assert_eq!(dag.in_edges(NodeId(0)).len(), 0);
    }

    #[test]
    fn default_matches_new() {
        let mut d = TensorDag::default();
        let mut n = TensorDag::new();
        assert_eq!(d.skew_threshold, n.skew_threshold);
        // A balanced op stays balanced under either constructor (a zero
        // threshold would call it skewed).
        let balanced = EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", 8),
                RankExtent::dense("k", 8),
                RankExtent::dense("n", 8),
            ],
        );
        for dag in [&mut d, &mut n] {
            let meta = TensorMeta::dense("T", &["m", "n"], 64);
            dag.add_op("op", balanced.clone(), OpKind::TensorMac, meta);
        }
        assert_eq!(d.node(NodeId(0)).dominance, Dominance::Balanced);
        assert_eq!(n.node(NodeId(0)).dominance, Dominance::Balanced);
        assert!(d.out_edges(NodeId(0)).is_empty() && d.in_edges(NodeId(0)).is_empty());
    }

    #[test]
    fn one_pass_answers_every_target() {
        let dag = dag_with(5, &[(0, 1), (0, 3), (1, 2), (2, 3), (0, 4)]);
        let paths = dag.longest_paths_from(NodeId(0));
        for to in 0..5 {
            let to = NodeId(to);
            assert_eq!(paths.len_to(to), dag.longest_path_len(NodeId(0), to));
            assert_eq!(paths.path_to(to), dag.longest_path(NodeId(0), to));
        }
        assert_eq!(paths.len_to(NodeId(0)), None);
        assert!(paths.is_transitive(NodeId(3)));
        assert!(!paths.is_transitive(NodeId(4)));
        assert_eq!(paths.pathnext(NodeId(3)), NodeId(1));
        assert_eq!(paths.pathnext(NodeId(4)), NodeId(4));
        // Node 4 does not reach node 3.
        assert_eq!(dag.longest_paths_from(NodeId(4)).len_to(NodeId(3)), None);
    }

    #[test]
    fn out_and_in_edges_keep_edge_id_order() {
        let dag = dag_with(4, &[(0, 3), (1, 3), (0, 1), (0, 2), (2, 3)]);
        assert_eq!(dag.out_edges(NodeId(0)), &[EdgeId(0), EdgeId(2), EdgeId(3)]);
        assert_eq!(dag.in_edges(NodeId(3)), &[EdgeId(0), EdgeId(1), EdgeId(4)]);
    }

    #[test]
    fn index_follows_insertions() {
        let mut dag = dag_with(2, &[(0, 1)]);
        assert_eq!(dag.out_edges(NodeId(0)), &[EdgeId(0)]);
        let n2 = dag.add_op(
            "op2",
            dummy_spec(),
            OpKind::TensorMac,
            TensorMeta::dense("T2", &["m", "n"], 800),
        );
        assert!(dag.in_edges(n2).is_empty());
        dag.add_edge(NodeId(0), n2, &["m", "n"]);
        assert_eq!(dag.out_edges(NodeId(0)), &[EdgeId(0), EdgeId(1)]);
        assert_eq!(dag.in_edges(n2), &[EdgeId(1)]);
        assert!(dag.reachable(NodeId(0), n2));
    }

    #[test]
    fn externals_registered() {
        let mut dag = dag_with(2, &[(0, 1)]);
        dag.add_external(
            TensorMeta::sparse("A", &["m", "k"], 1000),
            &[(NodeId(0), &["m", "k"])],
        );
        assert_eq!(dag.externals().len(), 1);
        assert_eq!(dag.externals()[0].consumers[0].0, 0);
    }

    #[test]
    #[should_panic(expected = "forward")]
    fn backward_edge_rejected() {
        let mut dag = dag_with(2, &[]);
        dag.add_edge(NodeId(1), NodeId(0), &["m"]);
    }
}
