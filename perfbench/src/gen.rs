//! Seeded inputs owned by the benchmark: a small RNG, an `O(n + m)`
//! Chung–Lu sampler and a DIMACS writer that emits edges in a seeded order.
//!
//! The inputs depend only on this file and the seed, never on the library's
//! own generators or RNG, so a change to the system under test cannot change
//! what it is measured on.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// SplitMix64: tiny, fast and well mixed; plenty for input generation.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; distinct `stream`s give independent sequences
    /// from one seed (graph structure vs. file order vs. request script).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`: never 0, so its logarithm is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Chung–Lu weights: vertex `i` gets `w_i ∝ (i + 1)^(−1/(β−1))`, scaled to
/// the target average degree (the weights of `kdc_graph::gen::chung_lu`).
fn chung_lu_weights(n: usize, avg_deg: f64, beta: f64) -> Vec<f64> {
    let gamma = 1.0 / (beta - 1.0);
    let raw: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0).powf(-gamma)).collect();
    let scale = avg_deg * n as f64 / raw.iter().sum::<f64>();
    raw.into_iter().map(|r| r * scale).collect()
}

/// A Chung–Lu power-law graph: each pair `u < v` is an edge with
/// probability `min(1, w_u·w_v / Σw)`. Sampled in `O(n + m)` by geometric
/// skipping (Miller & Hagberg, 2011): weights fall with the vertex id, so
/// along row `u` the pair probability never rises, and the sampler jumps
/// over a run of rejected pairs at the current probability `p`, then keeps
/// the landing pair with probability `q/p`, where `q` is its own
/// probability. Returns distinct pairs `(u, v)` with `u < v`.
pub fn chung_lu_edges(n: usize, avg_deg: f64, beta: f64, rng: &mut Rng) -> Vec<(u32, u32)> {
    assert!(beta > 2.0, "power-law exponent must exceed 2");
    let w = chung_lu_weights(n, avg_deg, beta);
    let total: f64 = w.iter().sum();
    let mut edges = Vec::with_capacity((avg_deg * n as f64 / 2.0) as usize);
    for u in 0..n.saturating_sub(1) {
        let mut v = u + 1;
        let mut p = (w[u] * w[v] / total).min(1.0);
        while v < n && p > 0.0 {
            if p < 1.0 {
                let skip = (rng.unit().ln() / (-p).ln_1p()).floor();
                if skip >= (n - v) as f64 {
                    break;
                }
                v += skip as usize;
            }
            let q = (w[u] * w[v] / total).min(1.0);
            if rng.unit() <= q / p {
                edges.push((u as u32, v as u32));
            }
            p = q;
            v += 1;
        }
    }
    edges
}

/// Writes `edges` (distinct, loop-free) as a DIMACS `.clq` file on `n`
/// vertices, in an order and orientation drawn from `rng`: the parser sees
/// realistic unsorted input, and the same seed writes the same bytes.
pub fn write_dimacs(
    path: &Path,
    n: usize,
    edges: &[(u32, u32)],
    rng: &mut Rng,
) -> Result<(), String> {
    let mut order: Vec<(u32, u32)> = edges
        .iter()
        .map(|&(u, v)| {
            if rng.next_u64() & 1 == 0 {
                (u, v)
            } else {
                (v, u)
            }
        })
        .collect();
    rng.shuffle(&mut order);
    let write = || -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "p edge {n} {}", order.len())?;
        for (u, v) in &order {
            writeln!(out, "e {} {}", u + 1, v + 1)?;
        }
        out.flush()
    };
    write().map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic_per_seed() {
        let a = chung_lu_edges(20_000, 10.0, 2.3, &mut Rng::new(7, 0));
        let b = chung_lu_edges(20_000, 10.0, 2.3, &mut Rng::new(7, 0));
        let c = chung_lu_edges(20_000, 10.0, 2.3, &mut Rng::new(8, 0));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn edge_count_is_near_n_d_over_2() {
        for (n, d) in [(20_000usize, 10.0f64), (100_000, 10.0)] {
            let edges = chung_lu_edges(n, d, 2.3, &mut Rng::new(7, 0));
            let target = n as f64 * d / 2.0;
            let off = (edges.len() as f64 - target).abs() / target;
            assert!(
                off < 0.05,
                "n={n}: {} edges, {:.1}% off n·d/2",
                edges.len(),
                off * 100.0
            );
        }
    }

    #[test]
    fn pairs_are_distinct_ordered_and_in_range() {
        let n = 5_000;
        let edges = chung_lu_edges(n, 12.0, 2.2, &mut Rng::new(3, 0));
        assert!(edges.iter().all(|&(u, v)| u < v && (v as usize) < n));
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), edges.len());
    }

    #[test]
    fn edge_count_matches_the_exact_expectation() {
        // Σ_{u<v} min(1, w_u·w_v/Σw) over all pairs, against the sampled
        // count averaged over seeds: skipping must not bias the pair rate.
        let (n, d, beta) = (2_000usize, 8.0, 2.4);
        let w = chung_lu_weights(n, d, beta);
        let total: f64 = w.iter().sum();
        let mut expected = 0.0;
        for u in 0..n {
            for v in u + 1..n {
                expected += (w[u] * w[v] / total).min(1.0);
            }
        }
        let seeds = 20u64;
        let sampled: usize = (0..seeds)
            .map(|s| chung_lu_edges(n, d, beta, &mut Rng::new(s, 0)).len())
            .sum();
        let mean = sampled as f64 / seeds as f64;
        // The count is a sum of independent Bernoullis: its sd is at most
        // √expected per seed, so 4 sd of the mean is a generous envelope.
        let envelope = 4.0 * (expected / seeds as f64).sqrt();
        assert!(
            (mean - expected).abs() < envelope,
            "mean {mean:.1} vs expected {expected:.1} (±{envelope:.1})"
        );
    }
}
