//! Descriptive graph statistics, used by the experiment harness to
//! characterise workloads (the paper reports n, m and density per instance;
//! degeneracy, clustering and component structure explain *why* collections
//! behave differently under the solver).

use crate::degeneracy::{self, BucketPeel};
use crate::graph::{Graph, VertexId};

/// Summary statistics of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Vertices.
    pub n: usize,
    /// Edges.
    pub m: usize,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree `2m/n`.
    pub avg_degree: f64,
    /// Degeneracy δ(G).
    pub degeneracy: usize,
    /// Number of triangles.
    pub triangles: usize,
    /// Global clustering coefficient `3·triangles / #wedges` (0 if no
    /// wedges).
    pub global_clustering: f64,
    /// Number of connected components.
    pub components: usize,
    /// Vertices in the largest component.
    pub largest_component: usize,
}

/// Computes all statistics in O(δ(G)·m).
pub fn graph_stats(g: &Graph) -> GraphStats {
    let n = g.n();
    let degrees: Vec<usize> = (0..n as VertexId).map(|v| g.degree(v)).collect();
    let triangles = g.triangle_count();
    let wedges: usize = degrees.iter().map(|&d| d * d.saturating_sub(1) / 2).sum();
    let comp = components(g);
    let (offsets, neighbors) = g.csr();
    GraphStats {
        n,
        m: g.m(),
        min_degree: degrees.iter().copied().min().unwrap_or(0),
        max_degree: degrees.iter().copied().max().unwrap_or(0),
        avg_degree: if n == 0 {
            0.0
        } else {
            2.0 * g.m() as f64 / n as f64
        },
        degeneracy: degeneracy::peel_bucket(offsets, neighbors, &mut BucketPeel::default()),
        triangles,
        global_clustering: if wedges == 0 {
            0.0
        } else {
            3.0 * triangles as f64 / wedges as f64
        },
        components: comp.count,
        largest_component: comp.largest,
    }
}

/// Connected components labelling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    /// `label[v]` = component id in `[0, count)`.
    pub label: Vec<u32>,
    /// Number of components.
    pub count: usize,
    /// Size of the largest component (0 for the empty graph).
    pub largest: usize,
}

/// Labels connected components by BFS in O(n + m).
pub fn components(g: &Graph) -> Components {
    let n = g.n();
    let mut label = vec![u32::MAX; n];
    let mut count = 0usize;
    let mut largest = 0usize;
    let mut queue: Vec<VertexId> = Vec::new();
    for start in 0..n as VertexId {
        if label[start as usize] != u32::MAX {
            continue;
        }
        let id = count as u32;
        count += 1;
        label[start as usize] = id;
        queue.clear();
        queue.push(start);
        let mut size = 0usize;
        let mut head = 0usize;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            size += 1;
            for &w in g.neighbors(v) {
                if label[w as usize] == u32::MAX {
                    label[w as usize] = id;
                    queue.push(w);
                }
            }
        }
        largest = largest.max(size);
    }
    Components {
        label,
        count,
        largest,
    }
}

/// Breadth-first distances from `source` (`u32::MAX` = unreachable).
pub fn bfs_distances(g: &Graph, source: VertexId) -> Vec<u32> {
    let n = g.n();
    let mut dist = vec![u32::MAX; n];
    dist[source as usize] = 0;
    let mut queue = vec![source];
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for &w in g.neighbors(v) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dist[v as usize] + 1;
                queue.push(w);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn stats_of_complete_graph() {
        let s = graph_stats(&gen::complete(5));
        assert_eq!(s.n, 5);
        assert_eq!(s.m, 10);
        assert_eq!(s.min_degree, 4);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.degeneracy, 4);
        assert_eq!(s.triangles, 10);
        assert!((s.global_clustering - 1.0).abs() < 1e-12);
        assert_eq!(s.components, 1);
        assert_eq!(s.largest_component, 5);
    }

    #[test]
    fn stats_of_disconnected_graph() {
        let g = crate::Graph::from_edges(7, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
        let s = graph_stats(&g);
        assert_eq!(s.components, 4, "triangle + edge + two isolated vertices");
        assert_eq!(s.largest_component, 3);
        assert_eq!(s.triangles, 1);
        assert_eq!(s.min_degree, 0);
    }

    #[test]
    fn empty_graph_stats() {
        let s = graph_stats(&crate::Graph::empty(0));
        assert_eq!(s.n, 0);
        assert_eq!(s.components, 0);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.global_clustering, 0.0);
    }

    #[test]
    fn components_labels_are_consistent() {
        let g = crate::Graph::from_edges(6, &[(0, 1), (2, 3), (3, 4)]);
        let c = components(&g);
        assert_eq!(c.count, 3);
        assert_eq!(c.label[0], c.label[1]);
        assert_eq!(c.label[2], c.label[3]);
        assert_eq!(c.label[3], c.label[4]);
        assert_ne!(c.label[0], c.label[2]);
        assert_ne!(c.label[5], c.label[0]);
        assert_eq!(c.largest, 3);
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = crate::Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, u32::MAX]);
    }

    #[test]
    fn clustering_of_triangle_free_graph_is_zero() {
        let g = gen::complete_multipartite(&[4, 4]);
        let s = graph_stats(&g);
        assert_eq!(s.triangles, 0);
        assert_eq!(s.global_clustering, 0.0);
    }

    #[test]
    fn community_graphs_have_high_clustering() {
        let mut rng = gen::seeded_rng(71);
        let fb = gen::community(
            &gen::CommunityParams {
                communities: 4,
                community_size: 30,
                p_in: 0.6,
                p_out: 0.01,
            },
            &mut rng,
        );
        let er = gen::gnp(120, fb.density(), &mut rng);
        let s_fb = graph_stats(&fb);
        let s_er = graph_stats(&er);
        assert!(
            s_fb.global_clustering > 2.0 * s_er.global_clustering,
            "community structure should inflate clustering ({} vs {})",
            s_fb.global_clustering,
            s_er.global_clustering
        );
    }
}
