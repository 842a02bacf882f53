//! Named topology families: the vocabulary of the CLI and experiment
//! harness.
//!
//! Each family knows how to build an instance near a target size and, where
//! the paper's analysis uses them, supplies an analytic vertex-expansion
//! value `α(n)` (validated against [`crate::expansion::alpha_exact`] at
//! small sizes in tests).

use crate::gen;
use crate::static_graph::Graph;

/// Node-count threshold above which randomized regular families switch
/// from the pairing-model builder ([`gen::random_regular`]) to the
/// direct-to-CSR cycle-union builder ([`gen::random_regular_cycles`]).
/// Chosen just above the largest recorded experiment cell (`2^20`) so the
/// switch cannot perturb any committed table's topology bytes.
pub const DIRECT_CSR_THRESHOLD: usize = 2_000_000;

/// A named graph family with a scalable size parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphFamily {
    /// Complete graph `K_n`: `α ≈ 1`, `Δ = n-1`.
    Clique,
    /// Path `P_n`: `α = 1/⌊n/2⌋`, `Δ = 2`.
    Path,
    /// Cycle `C_n`: `α = 2/⌊n/2⌋`, `Δ = 2`.
    Cycle,
    /// Star: `α = 1/⌊n/2⌋`, `Δ = n-1`.
    Star,
    /// §VI lower-bound construction: line of `√n` stars of `√n` points.
    LineOfStars,
    /// Random 3-regular expander: `α = Θ(1)`, `Δ = 3`.
    Expander3,
    /// Random 8-regular expander: `α = Θ(1)`, `Δ = 8`.
    Expander8,
    /// Hypercube `Q_{log n}`: `Δ = log n`.
    Hypercube,
    /// Torus grid `√n × √n`: `Δ = 4`, `α = Θ(1/√n)`.
    Torus,
    /// Barbell (two cliques + short bridge): `α = Θ(1/n)`, `Δ = Θ(n)`.
    Barbell,
    /// Two expanders joined by one edge: `α = Θ(1/n)`, `Δ = O(1)`.
    Dumbbell,
    /// Complete binary tree.
    BinaryTree,
    /// Barabási–Albert preferential attachment (m = 3): heavy-tailed
    /// degrees, like real contact networks.
    PowerLaw,
}

impl GraphFamily {
    /// All families, for sweep-everything experiments.
    pub const ALL: [GraphFamily; 13] = [
        GraphFamily::Clique,
        GraphFamily::Path,
        GraphFamily::Cycle,
        GraphFamily::Star,
        GraphFamily::LineOfStars,
        GraphFamily::Expander3,
        GraphFamily::Expander8,
        GraphFamily::Hypercube,
        GraphFamily::Torus,
        GraphFamily::Barbell,
        GraphFamily::Dumbbell,
        GraphFamily::BinaryTree,
        GraphFamily::PowerLaw,
    ];

    /// Stable lowercase name (CLI argument / CSV column).
    pub fn name(self) -> &'static str {
        match self {
            GraphFamily::Clique => "clique",
            GraphFamily::Path => "path",
            GraphFamily::Cycle => "cycle",
            GraphFamily::Star => "star",
            GraphFamily::LineOfStars => "line-of-stars",
            GraphFamily::Expander3 => "expander3",
            GraphFamily::Expander8 => "expander8",
            GraphFamily::Hypercube => "hypercube",
            GraphFamily::Torus => "torus",
            GraphFamily::Barbell => "barbell",
            GraphFamily::Dumbbell => "dumbbell",
            GraphFamily::BinaryTree => "binary-tree",
            GraphFamily::PowerLaw => "power-law",
        }
    }

    /// Parse a family from its [`name`](GraphFamily::name).
    pub fn parse(s: &str) -> Option<GraphFamily> {
        GraphFamily::ALL.iter().copied().find(|f| f.name() == s)
    }

    /// Build an instance with size as close to `n_target` as the family's
    /// structure permits (e.g. hypercubes round to powers of two). The
    /// actual size is `graph.node_count()`.
    pub fn build(self, n_target: usize, seed: u64) -> Graph {
        assert!(n_target >= 2, "families need n ≥ 2");
        match self {
            GraphFamily::Clique => gen::clique(n_target),
            GraphFamily::Path => gen::path(n_target),
            GraphFamily::Cycle => gen::cycle(n_target.max(3)),
            GraphFamily::Star => gen::star(n_target),
            GraphFamily::LineOfStars => gen::line_of_stars_sqrt(n_target).0,
            GraphFamily::Expander3 => {
                let n = if (n_target * 3).is_multiple_of(2) { n_target } else { n_target + 1 };
                gen::random_regular(n.max(4), 3, seed)
            }
            GraphFamily::Expander8 => {
                let n = n_target.max(10);
                // The pairing model peaks at 24 bytes/edge (measured: its
                // pair list plus its multiplicity table, in the repair loop);
                // past the threshold only the direct-to-CSR cycle-union
                // builder fits in memory. Every table recorded before the
                // threshold existed sits below it, so those instance bytes
                // are unchanged.
                if n > DIRECT_CSR_THRESHOLD {
                    gen::random_regular_cycles(n, 8, seed)
                } else {
                    gen::random_regular(n, 8, seed)
                }
            }
            GraphFamily::Hypercube => {
                // intended float->int rounding for a degree parameter.
                #[allow(clippy::cast_possible_truncation)]
                let d = (n_target.max(2) as f64).log2().round().max(1.0) as u32;
                gen::hypercube(d)
            }
            GraphFamily::Torus => {
                // intended float->int rounding: the side is at most √n_target.
                #[allow(clippy::cast_possible_truncation)]
                let side = ((n_target as f64).sqrt().round() as usize).max(3);
                gen::torus(side, side)
            }
            GraphFamily::Barbell => {
                // Below 4 nodes the smallest barbell (two K2 cliques) is built.
                let k = (n_target / 2).max(2);
                gen::barbell(k, n_target.saturating_sub(2 * k))
            }
            GraphFamily::Dumbbell => {
                let mut half = (n_target / 2).max(4);
                if !(half * 3).is_multiple_of(2) {
                    half += 1;
                }
                gen::dumbbell_expander(half, 3, seed)
            }
            GraphFamily::BinaryTree => gen::dary_tree(n_target, 2),
            GraphFamily::PowerLaw => gen::preferential_attachment(n_target.max(5), 3, seed),
        }
    }

    /// Analytic vertex expansion for an instance of `n` nodes, where a
    /// closed form (or a tight standard estimate) exists. Expander values
    /// are the asymptotic `Θ(1)` constants observed empirically; `None`
    /// means "measure it yourself".
    pub fn known_alpha(self, n: usize) -> Option<f64> {
        let half = (n / 2) as f64;
        match self {
            GraphFamily::Clique => {
                Some(if n.is_multiple_of(2) { 1.0 } else { (half + 1.0) / half })
            }
            GraphFamily::Path => Some(1.0 / half),
            GraphFamily::Cycle => Some(2.0 / half),
            GraphFamily::Star => Some(1.0 / half),
            // Line of s stars with s points: S = ⌊s/2⌋ whole stars (with
            // centers) is bounded only by the next spine node → α ≈ 1/(n/2)
            // … more precisely 1/((s²+s)/2) with s = √(n). We report the
            // Θ(1/n) form.
            GraphFamily::LineOfStars => Some(2.0 / n as f64),
            GraphFamily::Expander3 => None,
            GraphFamily::Expander8 => None,
            GraphFamily::Hypercube => None,
            // Torus √n×√n: a half-grid strip has boundary ≈ √n → α ≈ 2/√n.
            GraphFamily::Torus => Some(2.0 / (n as f64).sqrt()),
            GraphFamily::Barbell => Some(1.0 / half),
            GraphFamily::Dumbbell => Some(1.0 / half),
            GraphFamily::BinaryTree => None,
            GraphFamily::PowerLaw => None,
        }
    }
}

impl std::fmt::Display for GraphFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expansion::alpha_exact;

    #[test]
    fn all_families_build_connected() {
        // Every size from the smallest the CLI accepts, plus a mid-size one.
        for fam in GraphFamily::ALL {
            for n in (2..=16).chain([24]) {
                let g = fam.build(n, 42);
                if let Err(e) = g.validate() {
                    panic!("{fam} at n = {n}: {e}");
                }
                assert!(g.is_connected(), "{fam} at n = {n} disconnected");
                assert!(g.node_count() >= 2, "{fam} at n = {n} too small");
            }
        }
    }

    #[test]
    fn parse_round_trips() {
        for fam in GraphFamily::ALL {
            assert_eq!(GraphFamily::parse(fam.name()), Some(fam));
        }
        assert_eq!(GraphFamily::parse("nonsense"), None);
    }

    #[test]
    fn known_alpha_matches_exact_small() {
        for fam in [GraphFamily::Clique, GraphFamily::Path, GraphFamily::Cycle, GraphFamily::Star] {
            let g = fam.build(12, 0);
            let n = g.node_count();
            let exact = alpha_exact(&g);
            let known = fam.known_alpha(n).expect("family defines analytic alpha at this size");
            assert!((exact - known).abs() < 1e-9, "{fam}: exact {exact} vs known {known}");
        }
    }

    #[test]
    fn line_of_stars_known_alpha_is_theta_1_over_n() {
        // Exact α for the 3-star, 3-point instance (n = 12, enumerable).
        let g = gen::line_of_stars(3, 3);
        let exact = alpha_exact(&g);
        let known = GraphFamily::LineOfStars
            .known_alpha(12)
            .expect("line of stars defines analytic alpha at n = 12");
        // Same order: within a factor of 4.
        assert!(exact <= known * 4.0 && known <= exact * 4.0, "exact {exact} vs known {known}");
    }

    #[test]
    fn hypercube_sizes_round_to_powers_of_two() {
        let g = GraphFamily::Hypercube.build(100, 0);
        assert_eq!(g.node_count(), 128);
        let g = GraphFamily::Hypercube.build(64, 0);
        assert_eq!(g.node_count(), 64);
    }

    #[test]
    fn randomized_families_vary_with_seed() {
        let a = GraphFamily::Expander3.build(30, 1);
        let b = GraphFamily::Expander3.build(30, 2);
        assert_ne!(a, b);
        let c = GraphFamily::Expander3.build(30, 1);
        assert_eq!(a, c);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(format!("{}", GraphFamily::LineOfStars), "line-of-stars");
    }
}
