//! AoSoA element packs — the cross-element SIMD layout.
//!
//! The paper's central optimization packs `VECTOR_DIM` elements into the
//! lanes of every intermediate so the Gauss-point loops become straight-line
//! vector arithmetic. This module is that layout on the CPU: a *pack* is
//! `L` elements executing in lockstep, every intermediate a
//! [`Lanes<L>`] value, and every statement of the kernels a unit-stride
//! lane loop the autovectorizer cannot miss.
//!
//! [`PackFrame`] is the width-`L` [`Frame`]: it gathers whole lanes at once
//! and collects the pack's elemental RHS in a [`PackRhs`] instead of
//! scattering from inside the kernel. The driver then scatters it lane by
//! lane, each lane node-major — exactly the order the width-1 run of those
//! elements scatters in, so even two lanes sharing a node accumulate in
//! the scalar order. Packs carry no [`Recorder`] instrumentation: tracing
//! and the machine models replay the width-1 run.

use alya_fem::ScalarField;
use alya_machine::Recorder;

use crate::gather::Frame;
use crate::input::AssemblyInput;
use crate::lanes::{Lane, Lanes};
use crate::layout::Layout;

/// Default pack width: 8 f64 lanes — one AVX-512 register, two AVX2
/// registers. [`crate::drivers`] runs every packed kernel at this width;
/// the CPU machine model prices the speedup from the host's `simd_lanes`
/// against it.
pub const DEFAULT_LANES: usize = 8;

/// One batch of `L` elements executing in lockstep: the per-lane element
/// ids and the pack-granularity connectivity gather.
#[derive(Debug, Clone, Copy)]
pub struct ElemPack<const L: usize = DEFAULT_LANES> {
    /// The element ids in lane order.
    pub elems: [usize; L],
    /// Node ids per lane: `conns[lane][a]`.
    pub conns: [[u32; 4]; L],
}

impl<const L: usize> ElemPack<L> {
    /// Gathers the connectivity of `elems` into a pack.
    // alya:hot
    #[inline]
    pub fn load(input: &AssemblyInput, elems: [usize; L]) -> Self {
        let conns = elems.map(|e| input.mesh.element(e));
        Self { elems, conns }
    }

    /// Gathers a per-node value for every corner and lane:
    /// `out[a].0[lane] = at(node)`.
    #[inline]
    fn gather<const N: usize>(&self, at: impl Fn(usize) -> [f64; N]) -> [[Lanes<L>; N]; 4] {
        let mut out = [[Lanes([0.0; L]); N]; 4];
        for a in 0..4 {
            for l in 0..L {
                let v = at(self.conns[l][a] as usize);
                for d in 0..N {
                    out[a][d].0[l] = v[d];
                }
            }
        }
        out
    }
}

/// A pack's elemental RHS: `elrhs[a][d]` holds node `a`, component `d` of
/// every lane.
pub type PackRhs<const L: usize> = [[Lanes<L>; 3]; 4];

/// The width-`L` [`Frame`]: gathers from an [`ElemPack`], collects the
/// elemental RHS in a [`PackRhs`].
pub struct PackFrame<'p, const L: usize> {
    /// The pack being assembled.
    pub(crate) pack: &'p ElemPack<L>,
    /// Addresses the (untraced) workspace.
    pub(crate) lay: Layout,
    /// The pack's completed elemental RHS once the kernel returns.
    pub(crate) rhs: PackRhs<L>,
}

// alya:hot
impl<const L: usize> Frame<Lanes<L>> for PackFrame<'_, L> {
    #[inline]
    fn layout(&self) -> Layout {
        self.lay
    }

    #[inline]
    fn coords<R: Recorder>(&self, input: &AssemblyInput, _rec: &mut R) -> [[Lanes<L>; 3]; 4] {
        let coords = input.mesh.coords();
        self.pack.gather(|n| coords[n])
    }

    #[inline]
    fn velocity<R: Recorder>(&self, input: &AssemblyInput, _rec: &mut R) -> [[Lanes<L>; 3]; 4] {
        self.pack.gather(|n| input.velocity.get(n))
    }

    #[inline]
    fn nodal_scalar<R: Recorder>(
        &self,
        field: &ScalarField,
        _base: u64,
        _rec: &mut R,
    ) -> [Lanes<L>; 4] {
        self.pack.gather(|n| [field.get(n)]).map(|[v]| v)
    }

    #[inline]
    fn nu_t<R: Recorder>(&self, input: &AssemblyInput, _rec: &mut R) -> Lanes<L> {
        input.nu_t.map_or(Lanes::splat(0.0), |nut| {
            Lanes(self.pack.elems.map(|e| nut[e]))
        })
    }

    #[inline]
    fn scatter<R: Recorder>(&mut self, a: usize, d: usize, v: Lanes<L>, _rec: &mut R) {
        self.rhs[a][d] = v;
    }
}
