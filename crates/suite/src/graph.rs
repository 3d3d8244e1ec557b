//! A small undirected-graph kernel: adjacency lists, BFS shortest paths,
//! connectivity, and max-flow (Dinic's algorithm).
//!
//! Used to *verify* the structural claims of the paper — Proposition 1
//! (switch counts), Theorem 1 (full bisection bandwidth of the fat-tree)
//! and the bisection width of 1 for the linear array — on explicitly
//! constructed topology graphs, rather than trusting the closed forms.

use std::collections::VecDeque;

/// An undirected multigraph with unit-capacity edges.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adjacency: Vec<Vec<usize>>, // adjacency[v] = indices into `edges`
    edges: Vec<(usize, usize)>,
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Graph { adjacency: vec![Vec::new(); n], edges: Vec::new() }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges (parallel edges counted separately).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge; parallel edges are allowed (a trunk of
    /// `k` links is `k` parallel edges).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or the edge is a loop.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.vertex_count() && v < self.vertex_count(), "vertex out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        let id = self.edges.len();
        self.edges.push((u, v));
        self.adjacency[u].push(id);
        self.adjacency[v].push(id);
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }

    /// Iterator over the neighbours of `v` (with multiplicity).
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.adjacency[v].iter().map(move |&e| {
            let (a, b) = self.edges[e];
            if a == v {
                b
            } else {
                a
            }
        })
    }

    /// BFS distances (in hops) from `src`; `None` for unreachable
    /// vertices.
    pub fn bfs_distances(&self, src: usize) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.vertex_count()];
        let mut queue = VecDeque::new();
        dist[src] = Some(0);
        queue.push_back(src);
        while let Some(v) = queue.pop_front() {
            let d = dist[v].expect("queued vertices have distances");
            for w in self.neighbors(v).collect::<Vec<_>>() {
                if dist[w].is_none() {
                    dist[w] = Some(d + 1);
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// True when every vertex is reachable from vertex 0 (or the graph is
    /// empty).
    pub fn is_connected(&self) -> bool {
        if self.vertex_count() == 0 {
            return true;
        }
        self.bfs_distances(0).iter().all(Option::is_some)
    }

    /// Maximum flow between `source` and `sink` treating every undirected
    /// edge as capacity `1` in each direction (Dinic's algorithm). By
    /// max-flow/min-cut this equals the minimum number of edges whose
    /// removal disconnects `source` from `sink`.
    pub fn max_flow(&self, source: usize, sink: usize) -> usize {
        let mut net = FlowNetwork::new(self.vertex_count());
        for &(u, v) in &self.edges {
            net.add_undirected_edge(u, v, 1);
        }
        net.max_flow(source, sink)
    }

    /// Minimum number of edges separating vertex set `a` from vertex set
    /// `b` (the cut width between the two sides). Computed by adding a
    /// super-source/super-sink with infinite-capacity attachments and
    /// running max-flow.
    ///
    /// # Panics
    ///
    /// Panics if the sets overlap or either is empty.
    pub fn min_cut_between_sets(&self, a: &[usize], b: &[usize]) -> usize {
        assert!(!a.is_empty() && !b.is_empty(), "cut sets must be non-empty");
        assert!(a.iter().all(|x| !b.contains(x)), "cut sets must be disjoint");
        let n = self.vertex_count();
        let (s, t) = (n, n + 1);
        let mut net = FlowNetwork::new(n + 2);
        for &(u, v) in &self.edges {
            net.add_undirected_edge(u, v, 1);
        }
        let inf = self.edges.len() + 1;
        for &v in a {
            net.add_directed_edge(s, v, inf);
        }
        for &v in b {
            net.add_directed_edge(v, t, inf);
        }
        net.max_flow(s, t)
    }
}

/// Dinic max-flow over an explicit residual network.
struct FlowNetwork {
    // Edge list representation: to[i], cap[i]; reverse edge is i^1.
    to: Vec<usize>,
    cap: Vec<usize>,
    head: Vec<Vec<usize>>,
}

impl FlowNetwork {
    fn new(n: usize) -> Self {
        FlowNetwork { to: Vec::new(), cap: Vec::new(), head: vec![Vec::new(); n] }
    }

    fn add_directed_edge(&mut self, u: usize, v: usize, c: usize) {
        self.head[u].push(self.to.len());
        self.to.push(v);
        self.cap.push(c);
        self.head[v].push(self.to.len());
        self.to.push(u);
        self.cap.push(0);
    }

    /// An undirected unit edge is a pair of opposite directed edges that
    /// share residual capacity symmetrically: cap c both ways.
    fn add_undirected_edge(&mut self, u: usize, v: usize, c: usize) {
        self.head[u].push(self.to.len());
        self.to.push(v);
        self.cap.push(c);
        self.head[v].push(self.to.len());
        self.to.push(u);
        self.cap.push(c);
    }

    fn bfs_levels(&self, s: usize, t: usize) -> Option<Vec<i32>> {
        let mut level = vec![-1; self.head.len()];
        let mut q = VecDeque::new();
        level[s] = 0;
        q.push_back(s);
        while let Some(v) = q.pop_front() {
            for &e in &self.head[v] {
                if self.cap[e] > 0 && level[self.to[e]] < 0 {
                    level[self.to[e]] = level[v] + 1;
                    q.push_back(self.to[e]);
                }
            }
        }
        if level[t] < 0 {
            None
        } else {
            Some(level)
        }
    }

    fn dfs_augment(
        &mut self,
        v: usize,
        t: usize,
        pushed: usize,
        level: &[i32],
        iter: &mut [usize],
    ) -> usize {
        if v == t {
            return pushed;
        }
        while iter[v] < self.head[v].len() {
            let e = self.head[v][iter[v]];
            let w = self.to[e];
            if self.cap[e] > 0 && level[w] == level[v] + 1 {
                let d = self.dfs_augment(w, t, pushed.min(self.cap[e]), level, iter);
                if d > 0 {
                    self.cap[e] -= d;
                    self.cap[e ^ 1] += d;
                    return d;
                }
            }
            iter[v] += 1;
        }
        0
    }

    fn max_flow(&mut self, s: usize, t: usize) -> usize {
        let mut flow = 0;
        while let Some(level) = self.bfs_levels(s, t) {
            let mut iter = vec![0usize; self.head.len()];
            loop {
                let f = self.dfs_augment(s, t, usize::MAX, &level, &mut iter);
                if f == 0 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn bfs_on_path() {
        let g = path_graph(5);
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        assert!(g.is_connected());
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        assert!(!g.is_connected());
        assert_eq!(g.bfs_distances(0)[2], None);
    }

    #[test]
    fn max_flow_on_path_is_one() {
        let g = path_graph(6);
        assert_eq!(g.max_flow(0, 5), 1);
    }

    #[test]
    fn max_flow_counts_parallel_edges() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.max_flow(0, 1), 3);
    }

    #[test]
    fn max_flow_on_cycle_is_two() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 0);
        assert_eq!(g.max_flow(0, 2), 2);
    }

    #[test]
    fn max_flow_classic_diamond() {
        // Two vertex-disjoint paths of length 2 plus a cross edge.
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g.add_edge(1, 2);
        assert_eq!(g.max_flow(0, 3), 2);
    }

    #[test]
    fn min_cut_between_sets_on_barbell() {
        // Two triangles joined by a single bridge: cut = 1.
        let mut g = Graph::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            g.add_edge(u, v);
        }
        assert_eq!(g.min_cut_between_sets(&[0, 1, 2], &[3, 4, 5]), 1);
    }

    #[test]
    fn min_cut_complete_bipartite() {
        // K_{2,3}: cutting {0,1} from {2,3,4} requires all 6 edges.
        let mut g = Graph::new(5);
        for u in 0..2 {
            for v in 2..5 {
                g.add_edge(u, v);
            }
        }
        assert_eq!(g.min_cut_between_sets(&[0, 1], &[2, 3, 4]), 6);
    }

    #[test]
    fn degree_and_neighbors() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(0, 1); // parallel
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 2);
        let mut n: Vec<usize> = g.neighbors(0).collect();
        n.sort_unstable();
        assert_eq!(n, vec![1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn rejects_overlapping_cut_sets() {
        let g = path_graph(3);
        g.min_cut_between_sets(&[0, 1], &[1, 2]);
    }
}
