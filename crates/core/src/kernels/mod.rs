//! The five assembly kernel variants.
//!
//! All variants integrate the same physics over one linear tetrahedron —
//! convection `−ρ (u·∇)u`, diffusion `−(μ + ρ ν_t) ∇u : ∇N`, pressure
//! `+p ∇·N` and a uniform body force, with the 4-point Gauss rule — and
//! must produce the same elemental RHS to roundoff. They differ *only* in
//! code structure, which is the paper's entire subject:
//!
//! * [`baseline`] (**B** and, with a local workspace, **P**): the generic,
//!   elemental-matrix formulation with every intermediate in a workspace
//!   array;
//! * [`rs`] (**RS**): specialized and restructured, but intermediates still
//!   in interleaved arrays;
//! * [`rsp`] (**RSP**): specialized, restructured and privatized to scalars;
//! * [`rspr`] (**RSPR**): RSP plus immediate per-node scatter.
//!
//! Every kernel is written once, generic over the [`Lane`] type: `f64`
//! runs one element through an [`ElemFrame`](crate::gather::ElemFrame)
//! (traced gathers, in-kernel scatter), [`Lanes<L>`](crate::lanes::Lanes)
//! runs a pack of `L` elements through a
//! [`PackFrame`](crate::packs::PackFrame), every lane bitwise equal to the
//! width-1 run of its element.

pub mod baseline;
pub mod rs;
pub mod rsp;
pub mod rspr;
pub(crate) mod shared;

use alya_machine::Recorder;

use crate::gather::Frame;
use crate::input::AssemblyInput;
use crate::lanes::Lane;
use crate::variant::Variant;
use crate::workspace::Ws;

/// Runs `variant` on one frame — one element or one pack. `ws_buf` must
/// hold `variant.nvalues() × stride` floats for the workspace variants (it
/// is ignored by RSP/RSPR); `stride`/`lane` place the frame's values
/// within the interleaved buffer.
// alya:hot
#[inline]
pub fn run<V: Lane, F: Frame<V>, R: Recorder>(
    variant: Variant,
    input: &AssemblyInput,
    frame: &mut F,
    ws_buf: &mut [f64],
    stride: usize,
    lane: usize,
    rec: &mut R,
) {
    match variant {
        Variant::B => baseline::element(input, frame, &mut Ws::global(ws_buf, stride, lane), rec),
        Variant::P => baseline::element(input, frame, &mut Ws::local(ws_buf), rec),
        Variant::Rs => rs::element(input, frame, &mut Ws::global(ws_buf, stride, lane), rec),
        Variant::Rsp => rsp::element(input, frame, rec),
        Variant::Rspr => rspr::element(input, frame, rec),
    }
}

/// Tracked thread-private value: the value (one element's, or a pack's
/// lanes) plus its lifetime identity for the register allocator.
#[derive(Debug, Clone, Copy)]
pub struct Pv<V = f64> {
    val: V,
    id: u32,
}

impl<V: Copy> Pv<V> {
    /// Reads the value, recording a register use.
    #[inline]
    pub fn get<R: Recorder>(self, rec: &mut R) -> V {
        if R::ENABLED {
            rec.use_(self.id);
        }
        self.val
    }

    /// Updates the value in place (same register, new definition — the
    /// accumulator pattern).
    #[inline]
    pub fn set<R: Recorder>(&mut self, val: V, rec: &mut R) {
        if R::ENABLED {
            rec.def(self.id);
        }
        self.val = val;
    }
}

/// Allocates private-value identities for one element's kernel execution.
#[derive(Debug, Default)]
pub struct PrivAlloc {
    next: u32,
}

impl PrivAlloc {
    /// Fresh allocator (ids are per-element; the register allocator works
    /// on a single thread's stream).
    pub fn new() -> Self {
        Self::default()
    }

    /// Defines a new private value.
    #[inline]
    pub fn def<V, R: Recorder>(&mut self, val: V, rec: &mut R) -> Pv<V> {
        let id = self.next;
        self.next += 1;
        if R::ENABLED {
            rec.def(id);
        }
        Pv { val, id }
    }

    /// Defines a private 3-vector.
    #[inline]
    pub fn def3<V: Copy, R: Recorder>(&mut self, val: [V; 3], rec: &mut R) -> [Pv<V>; 3] {
        [
            self.def(val[0], rec),
            self.def(val[1], rec),
            self.def(val[2], rec),
        ]
    }
}

/// Reads a private 3-vector.
#[inline]
pub fn get3<V: Copy, R: Recorder>(v: &[Pv<V>; 3], rec: &mut R) -> [V; 3] {
    [v[0].get(rec), v[1].get(rec), v[2].get(rec)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use alya_machine::{Event, NoRecord, TraceRecorder};

    #[test]
    fn private_values_track_lifetimes() {
        let mut rec = TraceRecorder::new();
        let mut pa = PrivAlloc::new();
        let a = pa.def(1.5, &mut rec);
        let mut b = pa.def(2.0, &mut rec);
        let x = a.get(&mut rec) + b.get(&mut rec);
        b.set(x, &mut rec);
        assert_eq!(b.get(&mut rec), 3.5);
        assert_eq!(
            rec.events,
            vec![
                Event::Def(0),
                Event::Def(1),
                Event::Use(0),
                Event::Use(1),
                Event::Def(1),
                Event::Use(1),
            ]
        );
    }

    #[test]
    fn no_record_private_values_are_plain_floats() {
        let mut pa = PrivAlloc::new();
        let v = pa.def3([1.0, 2.0, 3.0], &mut NoRecord);
        assert_eq!(get3(&v, &mut NoRecord), [1.0, 2.0, 3.0]);
    }
}
