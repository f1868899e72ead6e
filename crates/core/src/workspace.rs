//! Vectorized intermediate-value workspaces.
//!
//! The paper's baseline stores *every* intermediate in an array with an
//! extra interleaved `VECTOR_DIM` dimension; the privatized variants turn
//! those arrays into thread-private (local-memory) arrays. [`Ws`] is that
//! storage with tracking: each `ld`/`st` goes through the recorder as a
//! global access at the interleaved modelled address ([`Space::Global`]) or
//! a local access at the per-thread slot ([`Space::Local`]).
//!
//! The numeric buffer layout is the driver's choice (`stride`/`lane`): the
//! serial driver hands lanes of a shared interleaved buffer — so the
//! un-instrumented build really does pay the baseline's memory traffic —
//! a pack of `L` elements reads and writes all its lanes of a slot at once
//! from the same layout at stride `L`, and tracing drivers hand a compact
//! per-element scratch.

use std::marker::PhantomData;

use alya_machine::{Recorder, Space};

use crate::lanes::Lane;
use crate::layout::Layout;

/// A tracked intermediate-value workspace for one element (`V = f64`) or
/// one pack (`V = Lanes<L>`, the buffer at stride `L`: value slot `v`'s
/// lanes are contiguous at `v·L`).
#[derive(Debug)]
pub struct Ws<'a, V = f64> {
    data: &'a mut [f64],
    stride: usize,
    lane: usize,
    space: Space,
    values: PhantomData<V>,
}

impl<'a, V: Lane> Ws<'a, V> {
    /// Lane view of a shared interleaved buffer (`data[v*stride + lane]`,
    /// `V::WIDTH` lanes from there), traced as interleaved **global**
    /// arrays — variants B and RS.
    pub fn global(data: &'a mut [f64], stride: usize, lane: usize) -> Self {
        debug_assert!(V::WIDTH == 1 || (stride == V::WIDTH && lane == 0));
        debug_assert!(lane < stride || stride == 1);
        Self {
            data,
            stride,
            lane,
            space: Space::Global,
            values: PhantomData,
        }
    }

    /// Compact scratch traced as **local** (thread-private) arrays —
    /// variant P.
    pub fn local(data: &'a mut [f64]) -> Self {
        Self {
            data,
            stride: V::WIDTH,
            lane: 0,
            space: Space::Local,
            values: PhantomData,
        }
    }

    /// Number of value slots available.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.stride).unwrap_or(0)
    }

    /// True when no slots are available.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// First buffer index of slot `v`. A pack's lanes of a slot are
    /// contiguous, so its view always starts at lane 0 and strides by the
    /// pack width — a compile-time constant the kernels' many slot
    /// accesses fold.
    #[inline]
    fn idx(&self, v: usize) -> usize {
        if V::WIDTH > 1 {
            v * V::WIDTH
        } else {
            v * self.stride + self.lane
        }
    }

    /// Stores intermediate value `v`.
    #[inline]
    pub fn st<R: Recorder>(&mut self, v: usize, val: V, layout: &Layout, rec: &mut R) {
        if R::ENABLED {
            match self.space {
                Space::Global => rec.gstore(layout.ws(v)),
                Space::Local => rec.lstore(v as u32),
            }
        }
        let i = self.idx(v);
        val.store(&mut self.data[i..i + V::WIDTH]);
    }

    /// Loads intermediate value `v`.
    #[inline]
    pub fn ld<R: Recorder>(&self, v: usize, layout: &Layout, rec: &mut R) -> V {
        if R::ENABLED {
            match self.space {
                Space::Global => rec.gload(layout.ws(v)),
                Space::Local => rec.lload(v as u32),
            }
        }
        let i = self.idx(v);
        V::load(&self.data[i..i + V::WIDTH])
    }

    /// Loads three consecutive values as a vector.
    #[inline]
    pub fn ld3<R: Recorder>(&self, v: usize, layout: &Layout, rec: &mut R) -> [V; 3] {
        [
            self.ld(v, layout, rec),
            self.ld(v + 1, layout, rec),
            self.ld(v + 2, layout, rec),
        ]
    }

    /// Stores three consecutive values.
    #[inline]
    pub fn st3<R: Recorder>(&mut self, v: usize, val: [V; 3], layout: &Layout, rec: &mut R) {
        self.st(v, val[0], layout, rec);
        self.st(v + 1, val[1], layout, rec);
        self.st(v + 2, val[2], layout, rec);
    }

    /// Read-modify-write accumulation into slot `v` (a load, an FMA-able
    /// add, and a store — the pattern the paper shows compilers emitting
    /// for `temp(:) = temp(:) + ...`).
    #[inline]
    pub fn acc<R: Recorder>(&mut self, v: usize, inc: V, layout: &Layout, rec: &mut R) {
        let old = self.ld(v, layout, rec);
        rec.flop(1);
        self.st(v, old + inc, layout, rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::Lanes;
    use alya_machine::{Event, NoRecord, TraceRecorder};

    fn layout() -> Layout {
        Layout::cpu(3, 16, 100)
    }

    #[test]
    fn global_ws_roundtrip_interleaved() {
        let mut buf = vec![0.0; 4 * 16];
        let l = layout();
        let mut ws = Ws::global(&mut buf, 16, 3);
        ws.st(2, 7.5, &l, &mut NoRecord);
        assert_eq!(ws.ld(2, &l, &mut NoRecord), 7.5);
        assert_eq!(ws.len(), 4);
        // Interleaved location: value 2, lane 3.
        assert_eq!(buf[2 * 16 + 3], 7.5);
    }

    #[test]
    fn global_ws_traces_interleaved_addresses() {
        let mut buf = vec![0.0; 4 * 16];
        let l = layout();
        let mut ws = Ws::global(&mut buf, 16, 3);
        let mut rec = TraceRecorder::new();
        ws.st(2, 1.0, &l, &mut rec);
        let _ = ws.ld(2, &l, &mut rec);
        assert_eq!(
            rec.events,
            vec![Event::GStore(l.ws(2)), Event::GLoad(l.ws(2))]
        );
    }

    #[test]
    fn local_ws_traces_slots() {
        let mut buf = vec![0.0; 8];
        let l = layout();
        let mut ws = Ws::local(&mut buf);
        let mut rec = TraceRecorder::new();
        ws.st(5, 2.0, &l, &mut rec);
        let _ = ws.ld(5, &l, &mut rec);
        assert_eq!(rec.events, vec![Event::LStore(5), Event::LLoad(5)]);
        assert_eq!(ws.ld(5, &l, &mut NoRecord), 2.0);
    }

    #[test]
    fn vector_helpers() {
        let mut buf = vec![0.0; 10];
        let l = layout();
        let mut ws = Ws::local(&mut buf);
        ws.st3(4, [1.0, 2.0, 3.0], &l, &mut NoRecord);
        assert_eq!(ws.ld3(4, &l, &mut NoRecord), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn acc_is_rmw() {
        let mut buf = vec![0.0; 2];
        let l = layout();
        let mut ws = Ws::local(&mut buf);
        ws.st(0, 1.0, &l, &mut NoRecord);
        let mut rec = TraceRecorder::new();
        ws.acc(0, 2.5, &l, &mut rec);
        assert_eq!(ws.ld(0, &l, &mut NoRecord), 3.5);
        let c = rec.counts();
        assert_eq!(c.local_loads, 1);
        assert_eq!(c.local_stores, 1);
        assert_eq!(c.plain_flops, 1);
    }

    #[test]
    fn two_lanes_share_a_buffer_without_clashing() {
        let mut buf = vec![0.0; 3 * 4];
        let l = layout();
        {
            let mut ws = Ws::global(&mut buf, 4, 0);
            ws.st(1, 10.0, &l, &mut NoRecord);
        }
        {
            let mut ws = Ws::global(&mut buf, 4, 2);
            ws.st(1, 20.0, &l, &mut NoRecord);
        }
        {
            let ws0 = Ws::<f64>::global(&mut buf, 4, 0);
            assert_eq!(ws0.ld(1, &l, &mut NoRecord), 10.0);
        }
        let ws2 = Ws::<f64>::global(&mut buf, 4, 2);
        assert_eq!(ws2.ld(1, &l, &mut NoRecord), 20.0);
    }

    #[test]
    fn pack_ws_is_slot_major_lane_minor() {
        let mut buf = vec![0.0; 3 * 4];
        let l = layout();
        let mut ws = Ws::<Lanes<4>>::global(&mut buf, 4, 0);
        assert_eq!(ws.len(), 3);
        ws.st(1, Lanes([1.0, 2.0, 3.0, 4.0]), &l, &mut NoRecord);
        ws.acc(1, Lanes([0.5; 4]), &l, &mut NoRecord);
        assert_eq!(ws.ld(1, &l, &mut NoRecord), Lanes([1.5, 2.5, 3.5, 4.5]));
        // Slot 1's lanes are contiguous at offset L.
        assert_eq!(buf[4..8], [1.5, 2.5, 3.5, 4.5]);
    }
}
