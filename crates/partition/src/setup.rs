//! Partition setup (§5.2): local graphs, id maps, clone trees, routes.
//!
//! Each partition gets a local CSR over dense local ids plus the
//! local→global map. For every split vertex a 1-level tree is built:
//! one clone (chosen by seeded hash, the paper picks randomly) is the
//! *root*, the rest are *leaves*. The DRPA algorithm then runs two
//! AlltoAll phases per sync — leaves→root partial aggregates, then
//! root→leaves final aggregates — so for every ordered partition pair
//! `(q, p)` we precompute the aligned routing triple
//! `(global ids, leaf-local ids in q, root-local ids in p)`.
//! Both sides of a route list vertices in ascending global order, so
//! filtering both sides with the same global-id predicate (the `cd-r`
//! binning) preserves alignment.

use crate::libra::Partitioning;
use crate::PartId;
use distgnn_graph::{Csr, EdgeList, VertexId};

/// One partition's local graph and id maps.
#[derive(Clone, Debug)]
pub struct Partition {
    pub part_id: usize,
    /// Local destination-major adjacency (partial neighbourhoods).
    pub graph: Csr,
    /// Local id -> global id, ascending.
    pub global_ids: Vec<VertexId>,
    /// Global in-degree (from the full graph) per local vertex; `cd-0`
    /// normalizes with this, `0c` with the local partial degree.
    pub global_degrees: Vec<f32>,
}

impl Partition {
    pub fn num_local_vertices(&self) -> usize {
        self.global_ids.len()
    }

    /// Local id of `global`, if present in this partition.
    pub fn local_of(&self, global: VertexId) -> Option<u32> {
        self.global_ids.binary_search(&global).ok().map(|i| i as u32)
    }

    /// Local partial in-degrees.
    pub fn local_degrees(&self) -> Vec<f32> {
        self.graph.degrees_f32()
    }
}

/// Aligned routing lists for one ordered pair (leaf partition `q` →
/// root partition `p`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Route {
    /// Global ids, ascending.
    pub globals: Vec<VertexId>,
    /// Local ids of the leaf clones in `q`, aligned with `globals`.
    pub leaf_locals: Vec<u32>,
    /// Local ids of the root clones in `p`, aligned with `globals`.
    pub root_locals: Vec<u32>,
}

impl Route {
    pub fn len(&self) -> usize {
        self.globals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.globals.is_empty()
    }
}

/// The full distributed setup.
#[derive(Clone, Debug)]
pub struct PartitionedGraph {
    pub parts: Vec<Partition>,
    /// `routes[q][p]`: leaves in `q` whose tree root lives in `p`
    /// (`q != p`; the diagonal stays empty).
    pub routes: Vec<Vec<Route>>,
    /// Root partition per global vertex (`PartId::MAX` for non-split
    /// vertices, which need no tree).
    pub root_of: Vec<PartId>,
    /// Ascending global ids of all split vertices.
    pub split_vertices: Vec<VertexId>,
}

impl PartitionedGraph {
    /// Builds the setup from the original edges and a partitioning.
    ///
    /// Isolated vertices (incident to no edge) are attached round-robin
    /// so that every global vertex exists in exactly one partition and
    /// full-graph training losses can be computed.
    pub fn build(edges: &EdgeList, partitioning: &Partitioning, seed: u64) -> PartitionedGraph {
        let k = partitioning.num_parts;
        let n = edges.num_vertices();
        assert_eq!(partitioning.num_vertices, n, "partitioning/edge-list mismatch");

        // Vertex membership per partition (sorted by construction).
        let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        for v in 0..n as u32 {
            let parts = &partitioning.vertex_parts[v as usize];
            if parts.is_empty() {
                members[(v as usize) % k].push(v);
            } else {
                for &p in parts {
                    members[p as usize].push(v);
                }
            }
        }

        // Global in-degrees from the full graph.
        let full = Csr::from_edges(edges);
        let global_deg = full.degrees_f32();

        // Local edge lists.
        let mut local_edges: Vec<EdgeList> =
            members.iter().map(|m| EdgeList::new(m.len())).collect();
        let local_of = |p: usize, g: VertexId, members: &[Vec<VertexId>]| -> u32 {
            members[p].binary_search(&g).expect("endpoint must be a member") as u32
        };
        for (eid, u, v) in edges.iter() {
            let p = partitioning.edge_assign[eid] as usize;
            let lu = local_of(p, u, &members);
            let lv = local_of(p, v, &members);
            local_edges[p].push(lu, lv);
        }

        let parts: Vec<Partition> = members
            .iter()
            .zip(local_edges.iter())
            .enumerate()
            .map(|(p, (globals, le))| Partition {
                part_id: p,
                graph: Csr::from_edges(le),
                global_ids: globals.clone(),
                global_degrees: globals.iter().map(|&g| global_deg[g as usize]).collect(),
            })
            .collect();

        // Tree roots for split vertices (seeded hash = paper's random pick).
        let mut root_of = vec![PartId::MAX; n];
        let mut split_vertices = Vec::new();
        for v in 0..n as u32 {
            let vp = &partitioning.vertex_parts[v as usize];
            if vp.len() > 1 {
                let h = splitmix64(seed ^ (v as u64).wrapping_mul(0x9E3779B97F4A7C15));
                root_of[v as usize] = vp[(h % vp.len() as u64) as usize];
                split_vertices.push(v);
            }
        }

        // Aligned routes, ascending global order by construction.
        let mut routes: Vec<Vec<Route>> = vec![vec![Route::default(); k]; k];
        for &v in &split_vertices {
            let root = root_of[v as usize] as usize;
            let root_local = parts[root].local_of(v).expect("root holds its vertex");
            for &q in &partitioning.vertex_parts[v as usize] {
                let q = q as usize;
                if q == root {
                    continue;
                }
                let leaf_local = parts[q].local_of(v).expect("leaf holds its vertex");
                let route = &mut routes[q][root];
                route.globals.push(v);
                route.leaf_locals.push(leaf_local);
                route.root_locals.push(root_local);
            }
        }

        PartitionedGraph { parts, routes, root_of, split_vertices }
    }

    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Total vertices summed over partitions (= Σ clones + isolated).
    pub fn total_local_vertices(&self) -> usize {
        self.parts.iter().map(Partition::num_local_vertices).sum()
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libra_partition;
    use distgnn_graph::generators::community_power_law;

    fn sample() -> (EdgeList, Partitioning) {
        let e = community_power_law(120, 900, 4, 0.8, 0.8, 7).symmetrize();
        let p = libra_partition(&e, 4);
        (e, p)
    }

    #[test]
    fn local_edges_sum_to_global_edges() {
        let (e, p) = sample();
        let pg = PartitionedGraph::build(&e, &p, 1);
        let total: usize = pg.parts.iter().map(|pt| pt.graph.num_edges()).sum();
        assert_eq!(total, e.num_edges());
    }

    #[test]
    fn every_vertex_lives_somewhere() {
        let (e, p) = sample();
        let pg = PartitionedGraph::build(&e, &p, 1);
        let mut seen = vec![false; e.num_vertices()];
        for part in &pg.parts {
            for &g in &part.global_ids {
                seen[g as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn local_ids_map_back_to_globals() {
        let (e, p) = sample();
        let pg = PartitionedGraph::build(&e, &p, 1);
        for part in &pg.parts {
            for (local, &global) in part.global_ids.iter().enumerate() {
                assert_eq!(part.local_of(global), Some(local as u32));
            }
            // Globals are strictly ascending (dense local ids).
            assert!(part.global_ids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn partial_degrees_sum_to_global_degree() {
        let (e, p) = sample();
        let pg = PartitionedGraph::build(&e, &p, 1);
        let full = Csr::from_edges(&e);
        let mut partial = vec![0usize; e.num_vertices()];
        for part in &pg.parts {
            for (local, &global) in part.global_ids.iter().enumerate() {
                partial[global as usize] += part.graph.degree(local as u32);
            }
        }
        for (v, &d) in partial.iter().enumerate() {
            assert_eq!(d, full.degree(v as u32), "vertex {v}");
        }
    }

    #[test]
    fn routes_are_aligned_and_sorted() {
        let (e, p) = sample();
        let pg = PartitionedGraph::build(&e, &p, 2);
        let k = pg.num_parts();
        for q in 0..k {
            assert!(pg.routes[q][q].is_empty(), "diagonal must be empty");
            for pr in 0..k {
                let r = &pg.routes[q][pr];
                assert_eq!(r.globals.len(), r.leaf_locals.len());
                assert_eq!(r.globals.len(), r.root_locals.len());
                assert!(r.globals.windows(2).all(|w| w[0] < w[1]));
                for (i, &g) in r.globals.iter().enumerate() {
                    assert_eq!(pg.parts[q].global_ids[r.leaf_locals[i] as usize], g);
                    assert_eq!(pg.parts[pr].global_ids[r.root_locals[i] as usize], g);
                    assert_eq!(pg.root_of[g as usize] as usize, pr);
                }
            }
        }
    }

    #[test]
    fn every_split_clone_appears_in_exactly_one_route() {
        let (e, p) = sample();
        let pg = PartitionedGraph::build(&e, &p, 3);
        // For each split vertex: clones = 1 root + leaves; each leaf is
        // in exactly one route (q -> root).
        let mut leaf_count = vec![0usize; e.num_vertices()];
        for q in 0..pg.num_parts() {
            for pr in 0..pg.num_parts() {
                for &g in &pg.routes[q][pr].globals {
                    leaf_count[g as usize] += 1;
                }
            }
        }
        for &v in &pg.split_vertices {
            assert_eq!(
                leaf_count[v as usize],
                p.clone_count(v) - 1,
                "vertex {v} leaves"
            );
        }
        // Non-split vertices never appear.
        for v in 0..e.num_vertices() as u32 {
            if !p.is_split(v) {
                assert_eq!(leaf_count[v as usize], 0);
            }
        }
    }

    #[test]
    fn root_choice_is_deterministic_per_seed() {
        let (e, p) = sample();
        let a = PartitionedGraph::build(&e, &p, 5);
        let b = PartitionedGraph::build(&e, &p, 5);
        assert_eq!(a.root_of, b.root_of);
    }
}
