//! Tracked gather and scatter through the mesh connectivity.
//!
//! The scattered, indirect nodal accesses are the irreducible memory
//! traffic of FEM assembly — after all optimizations they are what remains
//! (the paper's RSP/RSPR DRAM volume is almost exactly this gather/scatter).
//!
//! The kernels reach the mesh only through a [`Frame`]: [`ElemFrame`] is
//! the width-1 frame (traced gathers, scatter into a [`ScatterSink`] from
//! inside the kernel), [`PackFrame`](crate::packs::PackFrame) the width-`L`
//! one.

use alya_fem::{ScalarField, VectorField};
use alya_machine::Recorder;

use crate::input::AssemblyInput;
use crate::lanes::Lane;
use crate::layout::{self, Layout};

/// Loads the four node ids of element `e`.
// alya:hot
#[inline]
pub fn gather_conn<R: Recorder>(
    input: &AssemblyInput,
    e: usize,
    layout: &Layout,
    rec: &mut R,
) -> [u32; 4] {
    if R::ENABLED {
        for a in 0..4 {
            rec.gload(layout.conn(e, a));
        }
    }
    input.mesh.element(e)
}

/// Gathers the four node coordinates (12 loads).
// alya:hot
#[inline]
pub fn gather_coords<R: Recorder>(
    input: &AssemblyInput,
    nodes: &[u32; 4],
    layout: &Layout,
    rec: &mut R,
) -> [[f64; 3]; 4] {
    let coords = input.mesh.coords();
    let mut out = [[0.0; 3]; 4];
    for (a, &n) in nodes.iter().enumerate() {
        if R::ENABLED {
            for d in 0..3 {
                rec.gload(layout.nodal_vec(layout::COORD_BASE, n as usize, d));
            }
        }
        out[a] = coords[n as usize];
    }
    out
}

/// Gathers the four nodal velocities (12 loads).
// alya:hot
#[inline]
pub fn gather_velocity<R: Recorder>(
    input: &AssemblyInput,
    nodes: &[u32; 4],
    layout: &Layout,
    rec: &mut R,
) -> [[f64; 3]; 4] {
    let mut out = [[0.0; 3]; 4];
    for (a, &n) in nodes.iter().enumerate() {
        if R::ENABLED {
            for d in 0..3 {
                rec.gload(layout.nodal_vec(layout::VEL_BASE, n as usize, d));
            }
        }
        out[a] = input.velocity.get(n as usize);
    }
    out
}

/// Gathers a nodal scalar field (4 loads).
// alya:hot
#[inline]
pub fn gather_scalar<R: Recorder>(
    field: &ScalarField,
    base: u64,
    nodes: &[u32; 4],
    layout: &Layout,
    rec: &mut R,
) -> [f64; 4] {
    let mut out = [0.0; 4];
    for (a, &n) in nodes.iter().enumerate() {
        if R::ENABLED {
            rec.gload(layout.nodal_scalar(base, n as usize));
        }
        out[a] = field.get(n as usize);
    }
    out
}

/// Where elemental RHS contributions go.
///
/// The drivers provide sinks with different concurrency disciplines
/// (serial read-modify-write, colored direct writes, per-worker buffers);
/// the kernels only see `add`.
pub trait ScatterSink {
    /// Accumulates `v` into component `d` of node `n`.
    fn add<R: Recorder>(&mut self, n: u32, d: usize, v: f64, layout: &Layout, rec: &mut R);
}

/// Plain serial sink over the global RHS (read-modify-write: one load and
/// one store per component, the traffic an atomic reduction pays too).
pub struct DirectSink<'a> {
    /// The global RHS being assembled.
    pub rhs: &'a mut VectorField,
}

// alya:hot
impl ScatterSink for DirectSink<'_> {
    #[inline]
    fn add<R: Recorder>(&mut self, n: u32, d: usize, v: f64, layout: &Layout, rec: &mut R) {
        if R::ENABLED {
            let addr = layout.nodal_vec(layout::RHS_BASE, n as usize, d);
            rec.gload(addr);
            rec.gstore(addr);
            rec.flop(1);
        }
        let slice = self.rhs.component_mut(d);
        slice[n as usize] += v;
    }
}

// alya:hot
impl<S: ScatterSink + ?Sized> ScatterSink for &mut S {
    #[inline]
    fn add<R: Recorder>(&mut self, n: u32, d: usize, v: f64, layout: &Layout, rec: &mut R) {
        (**self).add(n, d, v, layout, rec);
    }
}

/// RHS slots one element's scatter touches: 4 nodes × 3 components. The
/// read-modify-write scatter performs exactly this many global loads and
/// this many global stores, for every variant.
pub const fn rhs_slots_per_element() -> u64 {
    4 * 3
}

/// One kernel execution's view of the mesh at one lane width: the nodal
/// gathers it reads and where its elemental RHS goes.
pub trait Frame<V: Lane> {
    /// Modelled addressing of this execution's workspace traffic.
    fn layout(&self) -> Layout;

    /// The four node coordinates (12 loads per element).
    fn coords<R: Recorder>(&self, input: &AssemblyInput, rec: &mut R) -> [[V; 3]; 4];

    /// The four nodal velocities (12 loads per element).
    fn velocity<R: Recorder>(&self, input: &AssemblyInput, rec: &mut R) -> [[V; 3]; 4];

    /// A nodal scalar field rooted at `base` (4 loads per element).
    fn nodal_scalar<R: Recorder>(&self, field: &ScalarField, base: u64, rec: &mut R) -> [V; 4];

    /// The per-element ν_t of the precompute pass (1 load per element);
    /// zero when the input carries none.
    fn nu_t<R: Recorder>(&self, input: &AssemblyInput, rec: &mut R) -> V;

    /// Hands off component `d` of node `a`'s RHS contribution.
    fn scatter<R: Recorder>(&mut self, a: usize, d: usize, v: V, rec: &mut R);

    /// Hands off a full elemental RHS, node-major, component-minor.
    #[inline]
    fn scatter_elemental<R: Recorder>(&mut self, elrhs: &[[V; 3]; 4], rec: &mut R) {
        for a in 0..4 {
            for d in 0..3 {
                self.scatter(a, d, elrhs[a][d], rec);
            }
        }
    }
}

/// The width-1 [`Frame`]: one element, every gather traced at its
/// [`Layout`] address, every contribution scattered into `S` as the kernel
/// produces it.
pub struct ElemFrame<S> {
    e: usize,
    nodes: [u32; 4],
    lay: Layout,
    sink: S,
}

impl<S: ScatterSink> ElemFrame<S> {
    /// Loads element `e`'s connectivity (4 traced loads).
    #[inline]
    pub fn load<R: Recorder>(
        input: &AssemblyInput,
        e: usize,
        lay: &Layout,
        sink: S,
        rec: &mut R,
    ) -> Self {
        let nodes = gather_conn(input, e, lay, rec);
        Self {
            e,
            nodes,
            lay: *lay,
            sink,
        }
    }
}

// alya:hot
impl<S: ScatterSink> Frame<f64> for ElemFrame<S> {
    #[inline]
    fn layout(&self) -> Layout {
        self.lay
    }

    #[inline]
    fn coords<R: Recorder>(&self, input: &AssemblyInput, rec: &mut R) -> [[f64; 3]; 4] {
        gather_coords(input, &self.nodes, &self.lay, rec)
    }

    #[inline]
    fn velocity<R: Recorder>(&self, input: &AssemblyInput, rec: &mut R) -> [[f64; 3]; 4] {
        gather_velocity(input, &self.nodes, &self.lay, rec)
    }

    #[inline]
    fn nodal_scalar<R: Recorder>(&self, field: &ScalarField, base: u64, rec: &mut R) -> [f64; 4] {
        gather_scalar(field, base, &self.nodes, &self.lay, rec)
    }

    #[inline]
    fn nu_t<R: Recorder>(&self, input: &AssemblyInput, rec: &mut R) -> f64 {
        match input.nu_t {
            Some(nut) => {
                if R::ENABLED {
                    rec.gload(self.lay.elemental(layout::NUT_BASE, self.e));
                }
                nut[self.e]
            }
            None => 0.0,
        }
    }

    #[inline]
    fn scatter<R: Recorder>(&mut self, a: usize, d: usize, v: f64, rec: &mut R) {
        self.sink.add(self.nodes[a], d, v, &self.lay, rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alya_fem::{ScalarField, VectorField};
    use alya_machine::{NoRecord, TraceRecorder};
    use alya_mesh::BoxMeshBuilder;

    fn setup() -> (alya_mesh::TetMesh, VectorField, ScalarField, ScalarField) {
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        let v = VectorField::from_fn(&mesh, |p| [p[0], p[1], p[2]]);
        let p = ScalarField::from_fn(&mesh, |q| q[0] + q[1]);
        let t = ScalarField::zeros(mesh.num_nodes());
        (mesh, v, p, t)
    }

    #[test]
    fn gather_matches_fields() {
        let (mesh, v, p, t) = setup();
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let layout = Layout::cpu(0, 16, mesh.num_nodes());
        let nodes = gather_conn(&input, 5, &layout, &mut NoRecord);
        assert_eq!(nodes, mesh.element(5));
        let coords = gather_coords(&input, &nodes, &layout, &mut NoRecord);
        assert_eq!(coords, mesh.element_coords(5));
        let vel = gather_velocity(&input, &nodes, &layout, &mut NoRecord);
        for a in 0..4 {
            assert_eq!(vel[a], v.get(nodes[a] as usize));
        }
    }

    #[test]
    fn gather_emits_expected_load_counts() {
        let (mesh, v, p, t) = setup();
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let layout = Layout::cpu(0, 16, mesh.num_nodes());
        let mut rec = TraceRecorder::new();
        let nodes = gather_conn(&input, 0, &layout, &mut rec);
        let _ = gather_coords(&input, &nodes, &layout, &mut rec);
        let _ = gather_velocity(&input, &nodes, &layout, &mut rec);
        let _ = gather_scalar(&p, layout::PRES_BASE, &nodes, &layout, &mut rec);
        assert_eq!(rec.counts().global_loads, 4 + 12 + 12 + 4);
    }

    #[test]
    fn scatter_accumulates() {
        let (mesh, v, p, t) = setup();
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let layout = Layout::cpu(0, 16, mesh.num_nodes());
        let nodes = mesh.element(0);
        let mut rhs = VectorField::zeros(mesh.num_nodes());
        let sink = DirectSink { rhs: &mut rhs };
        let mut frame = ElemFrame::load(&input, 0, &layout, sink, &mut NoRecord);
        let elrhs = [[1.0, 2.0, 3.0]; 4];
        frame.scatter_elemental(&elrhs, &mut NoRecord);
        frame.scatter_elemental(&elrhs, &mut NoRecord);
        for &n in &nodes {
            assert_eq!(rhs.get(n as usize), [2.0, 4.0, 6.0]);
        }
    }

    #[test]
    fn scatter_emits_rmw_traffic() {
        let (mesh, v, p, t) = setup();
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let layout = Layout::cpu(0, 16, mesh.num_nodes());
        let mut rhs = VectorField::zeros(mesh.num_nodes());
        let sink = DirectSink { rhs: &mut rhs };
        let mut frame = ElemFrame::load(&input, 0, &layout, sink, &mut NoRecord);
        let mut rec = TraceRecorder::new();
        frame.scatter_elemental(&[[0.5; 3]; 4], &mut rec);
        let c = rec.counts();
        assert_eq!(c.global_loads, 12);
        assert_eq!(c.global_stores, 12);
    }
}
