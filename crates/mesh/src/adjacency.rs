//! Mesh adjacency structures in compressed (CSR-like) form.
//!
//! Assembly scatters element contributions to nodes; the inverse map
//! ([`NodeToElements`]) and the element conflict graph ([`ElementGraph`],
//! two elements conflict when they share a node) drive race-free parallel
//! scatter strategies and the sparsity pattern of the pressure Poisson matrix.

use crate::tet::{TetMesh, NODES_PER_TET};

/// CSR map from each node to the elements that contain it.
#[derive(Debug, Clone)]
pub struct NodeToElements {
    offsets: Vec<u32>,
    elements: Vec<u32>,
}

impl NodeToElements {
    /// Builds the node→element map with two counting passes.
    pub fn build(mesh: &TetMesh) -> Self {
        let n = mesh.num_nodes();
        let mut counts = vec![0u32; n + 1];
        for conn in mesh.connectivity() {
            for &node in conn {
                counts[node as usize + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut elements = vec![0u32; offsets[n] as usize];
        for (e, conn) in mesh.connectivity().iter().enumerate() {
            for &node in conn {
                let c = &mut cursor[node as usize];
                elements[*c as usize] = e as u32;
                *c += 1;
            }
        }
        Self { offsets, elements }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Elements containing node `n`, in ascending element order.
    #[inline]
    pub fn elements_of(&self, n: usize) -> &[u32] {
        let lo = self.offsets[n] as usize;
        let hi = self.offsets[n + 1] as usize;
        &self.elements[lo..hi]
    }

    /// Number of (node, element) incidences, i.e. `4 × num_elements`.
    #[inline]
    pub fn num_incidences(&self) -> usize {
        self.elements.len()
    }

    /// Mean number of elements per node — the node-reuse factor that
    /// determines how much nodal data is shared between threads. For Kuhn
    /// meshes this tends to 24 for interior-dominated meshes, which matches
    /// the paper's Bolund mesh (4 × 32 M incidences / 5.6 M nodes ≈ 23).
    pub fn mean_elements_per_node(&self) -> f64 {
        self.elements.len() as f64 / self.num_nodes() as f64
    }
}

/// CSR element-to-element conflict graph: elements are adjacent when they
/// share at least one node.
#[derive(Debug, Clone)]
pub struct ElementGraph {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
}

impl ElementGraph {
    /// Builds the conflict graph through the node→element map. Each
    /// neighbor is kept once (`seen_by` remembers the last element that
    /// collected it), so only the distinct neighbors get sorted.
    pub fn build(mesh: &TetMesh, node_to_elems: &NodeToElements) -> Self {
        let ne = mesh.num_elements();
        let mut offsets = Vec::with_capacity(ne + 1);
        offsets.push(0u32);
        let mut neighbors = Vec::new();
        let mut seen_by = vec![u32::MAX; ne];
        for (e, conn) in mesh.connectivity().iter().enumerate() {
            let start = neighbors.len();
            seen_by[e] = e as u32;
            for &node in conn.iter().take(NODES_PER_TET) {
                for &other in node_to_elems.elements_of(node as usize) {
                    if seen_by[other as usize] != e as u32 {
                        seen_by[other as usize] = e as u32;
                        neighbors.push(other);
                    }
                }
            }
            neighbors[start..].sort_unstable();
            offsets.push(neighbors.len() as u32);
        }
        Self { offsets, neighbors }
    }

    /// Number of elements (graph vertices).
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbors of element `e` (sorted, excludes `e` itself).
    #[inline]
    pub fn neighbors_of(&self, e: usize) -> &[u32] {
        let lo = self.offsets[e] as usize;
        let hi = self.offsets[e + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Maximum vertex degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_elements())
            .map(|e| self.neighbors_of(e).len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::BoxMeshBuilder;
    use crate::tet::unit_tet;

    #[test]
    fn single_tet_incidences() {
        let mesh = unit_tet();
        let n2e = NodeToElements::build(&mesh);
        assert_eq!(n2e.num_nodes(), 4);
        assert_eq!(n2e.num_incidences(), 4);
        for n in 0..4 {
            assert_eq!(n2e.elements_of(n), &[0]);
        }
    }

    #[test]
    fn incidence_count_is_four_per_element() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).build();
        let n2e = NodeToElements::build(&mesh);
        assert_eq!(n2e.num_incidences(), 4 * mesh.num_elements());
    }

    #[test]
    fn node_to_elements_is_consistent_with_connectivity() {
        let mesh = BoxMeshBuilder::new(2, 3, 2).build();
        let n2e = NodeToElements::build(&mesh);
        for n in 0..mesh.num_nodes() {
            for &e in n2e.elements_of(n) {
                assert!(mesh.element(e as usize).contains(&(n as u32)));
            }
        }
        // And the reverse: every element appears in each of its nodes' lists.
        for (e, conn) in mesh.connectivity().iter().enumerate() {
            for &node in conn {
                assert!(n2e.elements_of(node as usize).contains(&(e as u32)));
            }
        }
    }

    #[test]
    fn mean_reuse_factor_matches_bolund_mesh() {
        // Paper mesh: 32 M tets / 5.6 M nodes -> 4*32/5.6 ~ 22.9 elems/node.
        let mesh = BoxMeshBuilder::new(12, 12, 12).build();
        let n2e = NodeToElements::build(&mesh);
        let reuse = n2e.mean_elements_per_node();
        assert!(
            reuse > 16.0 && reuse < 24.0,
            "reuse factor {reuse} out of expected range"
        );
    }

    #[test]
    fn element_graph_symmetry() {
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        let n2e = NodeToElements::build(&mesh);
        let graph = ElementGraph::build(&mesh, &n2e);
        for e in 0..graph.num_elements() {
            for &nb in graph.neighbors_of(e) {
                assert!(
                    graph.neighbors_of(nb as usize).contains(&(e as u32)),
                    "edge {e} -> {nb} not symmetric"
                );
            }
        }
    }

    #[test]
    fn element_graph_excludes_self() {
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        let n2e = NodeToElements::build(&mesh);
        let graph = ElementGraph::build(&mesh, &n2e);
        for e in 0..graph.num_elements() {
            assert!(!graph.neighbors_of(e).contains(&(e as u32)));
        }
    }

    #[test]
    fn neighbors_share_a_node() {
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        let n2e = NodeToElements::build(&mesh);
        let graph = ElementGraph::build(&mesh, &n2e);
        for e in 0..graph.num_elements() {
            let ce = mesh.element(e);
            for &nb in graph.neighbors_of(e) {
                let cn = mesh.element(nb as usize);
                assert!(
                    ce.iter().any(|n| cn.contains(n)),
                    "elements {e} and {nb} share no node"
                );
            }
        }
    }
}
