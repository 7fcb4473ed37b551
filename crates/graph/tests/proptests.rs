//! Property-based tests for the graph substrate's data structures.

use kdc_graph::bitset::{BitMatrix, BitSet};
use kdc_graph::scratch::{Marker, ScratchMap};
use kdc_graph::{gen, io, Graph};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bitset_models_hashset(ops in proptest::collection::vec((0usize..200, any::<bool>()), 0..150)) {
        let mut bs = BitSet::new(200);
        let mut hs: HashSet<usize> = HashSet::new();
        for (v, insert) in ops {
            if insert {
                prop_assert_eq!(bs.insert(v), hs.insert(v));
            } else {
                prop_assert_eq!(bs.remove(v), hs.remove(&v));
            }
        }
        prop_assert_eq!(bs.len(), hs.len());
        let mut sorted: Vec<usize> = hs.into_iter().collect();
        sorted.sort_unstable();
        prop_assert_eq!(bs.iter().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn bitset_algebra_matches_sets(a in proptest::collection::hash_set(0usize..128, 0..60),
                                   b in proptest::collection::hash_set(0usize..128, 0..60)) {
        let mk = |s: &HashSet<usize>| {
            let mut bs = BitSet::new(128);
            for &v in s {
                bs.insert(v);
            }
            bs
        };
        let (ba, bb) = (mk(&a), mk(&b));
        prop_assert_eq!(ba.intersection_len(&bb), a.intersection(&b).count());

        let mut inter = ba.clone();
        inter.intersect_with(&bb);
        prop_assert_eq!(inter.len(), a.intersection(&b).count());

        let mut uni = ba.clone();
        uni.union_with(&bb);
        prop_assert_eq!(uni.len(), a.union(&b).count());

        let mut diff = ba.clone();
        diff.difference_with(&bb);
        prop_assert_eq!(diff.len(), a.difference(&b).count());
    }

    #[test]
    fn bitmatrix_row_ops_match_bitsets(edges in proptest::collection::vec((0usize..48, 0usize..48), 0..120)) {
        let mut m = BitMatrix::new(48, 48);
        let mut rows: Vec<HashSet<usize>> = vec![HashSet::new(); 48];
        for (r, c) in edges {
            m.set(r, c);
            rows[r].insert(c);
        }
        for (r, expected) in rows.iter().enumerate() {
            prop_assert_eq!(m.row_len(r), expected.len());
            prop_assert_eq!(m.row_iter(r).collect::<HashSet<_>>(), expected.clone());
        }
        prop_assert_eq!(m.row_intersection_len(0, 1), rows[0].intersection(&rows[1]).count());
    }

    #[test]
    fn marker_reset_isolates_epochs(vals in proptest::collection::vec(0usize..64, 1..40)) {
        let mut m = Marker::new(64);
        for &v in &vals {
            m.mark(v);
            prop_assert!(m.is_marked(v));
        }
        m.reset();
        for &v in &vals {
            prop_assert!(!m.is_marked(v));
        }
    }

    #[test]
    fn scratch_map_models_hashmap(kv in proptest::collection::vec((0usize..64, 0usize..1000), 0..60)) {
        let mut s = ScratchMap::new(64);
        let mut reference = std::collections::HashMap::new();
        for (key, val) in kv {
            s.set(key, val);
            reference.insert(key, val);
        }
        for (k, v) in &reference {
            prop_assert_eq!(s.get_or(*k, usize::MAX), *v);
        }
        s.reset();
        for k in reference.keys() {
            prop_assert_eq!(s.get_or(*k, usize::MAX), usize::MAX);
        }
    }

    #[test]
    fn graph_construction_canonicalizes(n in 2usize..30,
                                        raw in proptest::collection::vec((0u32..30, 0u32..30), 0..80)) {
        let edges: Vec<(u32, u32)> = raw
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let g = Graph::from_edges(n, &edges);
        // Adjacency symmetric, sorted, deduped, no self-loops.
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!nbrs.contains(&v));
            for &w in nbrs {
                prop_assert!(g.has_edge(w, v));
            }
        }
        // Reversed duplicates collapse: rebuilding from the canonical edge
        // list is the identity.
        let rebuilt = Graph::from_edges(n, &g.edges().collect::<Vec<_>>());
        prop_assert_eq!(rebuilt, g);
    }

    #[test]
    fn io_roundtrip_any_graph(n in 1usize..40, p in 0.0f64..0.6, seed in 0u64..1000) {
        let g = gen::gnp(n, p, &mut gen::seeded_rng(seed));
        let dir = std::env::temp_dir().join("kdc_graph_proptests");
        std::fs::create_dir_all(&dir).unwrap();
        let salt = format!("{n}-{seed}");
        for ext in ["clq", "graph", "txt"] {
            let path = dir.join(format!("g-{salt}.{ext}"));
            match ext {
                "clq" => io::write_dimacs(&g, &path).unwrap(),
                "graph" => io::write_metis(&g, &path).unwrap(),
                _ => io::write_edge_list(&g, &path).unwrap(),
            }
            let back = io::read_graph(&path).unwrap();
            // Edge-list files size the graph by max id: isolated tail
            // vertices are dropped there, so compare edges.
            prop_assert_eq!(back.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
            if ext != "txt" {
                prop_assert_eq!(back, g.clone());
            }
        }
    }

    #[test]
    fn edge_list_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        // Fuzz: arbitrary bytes must parse or error, never panic, in all
        // three readers.
        let _ = io::parse_edge_list(&bytes[..], false);
        let _ = io::parse_edge_list(&bytes[..], true);
        let _ = io::parse_dimacs(&bytes[..]);
        let _ = io::parse_metis(&bytes[..]);
    }

    #[test]
    fn from_edges_matches_from_adjacency(n in 0usize..40,
                                         raw in proptest::collection::vec((0u32..40, 0u32..40), 0..200)) {
        // Random edge multisets: duplicates, reversals and self-loops.
        let edges: Vec<(u32, u32)> = if n == 0 {
            Vec::new()
        } else {
            raw.into_iter().map(|(a, b)| (a % n as u32, b % n as u32)).collect()
        };
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in &edges {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        prop_assert_eq!(Graph::from_edges(n, &edges), Graph::from_adjacency(adj));
    }
}
