//! The lane type: one kernel source, two widths.
//!
//! The paper's kernels give every intermediate an extra `VECTOR_DIM`
//! dimension so that one source serves the CPU (a pack of elements per
//! statement) and the GPU. Here the kernels are generic over [`Lane`]
//! instead: with `f64` a kernel assembles one element — the traced
//! reference path — and with [`Lanes<L>`] it assembles a pack of `L`
//! elements in lockstep, every statement a unit-stride lane loop.
//!
//! Every [`Lanes`] operation applies the same single IEEE operation to
//! each lane on its own: no operation mixes lanes, and Rust never
//! contracts `a * b + c` into an FMA. Lane `l` of a pack therefore
//! performs element `l`'s scalar operation sequence *by construction*,
//! and is bitwise equal to the same kernel run at width 1.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A lane value: `f64` for one element, [`Lanes<L>`] for a pack of `L`.
pub trait Lane:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Mul<f64, Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
{
    /// Elements carried side by side.
    const WIDTH: usize;
    /// The lane mask with every lane set.
    const ALL: u64;

    /// Broadcasts `x` to every lane.
    fn splat(x: f64) -> Self;

    /// Applies `f` to every lane on its own.
    fn per_lane(self, f: impl Fn(f64) -> f64) -> Self;

    /// Bit `l` set where lane `l` is `<= bound`.
    fn le_mask(self, bound: f64) -> u64;

    /// `self` with the lanes in `mask` replaced by `0.0`.
    fn zero_where(self, mask: u64) -> Self;

    /// Reads the `WIDTH` values of `src`.
    fn load(src: &[f64]) -> Self;

    /// Writes the `WIDTH` values of `dst`.
    fn store(self, dst: &mut [f64]);

    /// Lanewise cube root.
    #[inline]
    fn cbrt(self) -> Self {
        self.per_lane(f64::cbrt)
    }

    /// Lanewise square root.
    #[inline]
    fn sqrt(self) -> Self {
        self.per_lane(f64::sqrt)
    }
}

impl Lane for f64 {
    const WIDTH: usize = 1;
    const ALL: u64 = 1;

    #[inline]
    fn splat(x: f64) -> Self {
        x
    }

    #[inline]
    fn per_lane(self, f: impl Fn(f64) -> f64) -> Self {
        f(self)
    }

    #[inline]
    fn le_mask(self, bound: f64) -> u64 {
        u64::from(self <= bound)
    }

    #[inline]
    fn zero_where(self, mask: u64) -> Self {
        if mask & 1 == 0 {
            self
        } else {
            0.0
        }
    }

    #[inline]
    fn load(src: &[f64]) -> Self {
        src[0]
    }

    #[inline]
    fn store(self, dst: &mut [f64]) {
        dst[0] = self;
    }
}

/// `L` elements' values of one intermediate, lane `l` belonging to the
/// pack's element `l`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lanes<const L: usize>(pub [f64; L]);

macro_rules! lanewise {
    ($($op:ident $fn:ident),*) => {$(
        impl<const L: usize> $op for Lanes<L> {
            type Output = Self;
            #[inline]
            fn $fn(mut self, rhs: Self) -> Self {
                for l in 0..L {
                    self.0[l] = self.0[l].$fn(rhs.0[l]);
                }
                self
            }
        }
    )*};
}

lanewise!(Add add, Sub sub, Mul mul, Div div);

macro_rules! lanewise_assign {
    ($($op:ident $fn:ident $by:ident),*) => {$(
        impl<const L: usize> $op for Lanes<L> {
            #[inline]
            fn $fn(&mut self, rhs: Self) {
                *self = self.$by(rhs);
            }
        }
    )*};
}

lanewise_assign!(AddAssign add_assign add, SubAssign sub_assign sub);

impl<const L: usize> Mul<f64> for Lanes<L> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.per_lane(|x| x * rhs)
    }
}

impl<const L: usize> Neg for Lanes<L> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        self.per_lane(|x| -x)
    }
}

impl<const L: usize> Lane for Lanes<L> {
    const WIDTH: usize = L;
    const ALL: u64 = u64::MAX >> (64 - L);

    #[inline]
    fn splat(x: f64) -> Self {
        Lanes([x; L])
    }

    #[inline]
    fn per_lane(mut self, f: impl Fn(f64) -> f64) -> Self {
        for x in &mut self.0 {
            *x = f(*x);
        }
        self
    }

    #[inline]
    fn le_mask(self, bound: f64) -> u64 {
        let mut mask = 0;
        for l in 0..L {
            mask |= u64::from(self.0[l] <= bound) << l;
        }
        mask
    }

    #[inline]
    fn zero_where(mut self, mask: u64) -> Self {
        for l in 0..L {
            if mask >> l & 1 != 0 {
                self.0[l] = 0.0;
            }
        }
        self
    }

    #[inline]
    fn load(src: &[f64]) -> Self {
        let mut out = [0.0; L];
        out.copy_from_slice(src);
        Lanes(out)
    }

    #[inline]
    fn store(self, dst: &mut [f64]) {
        dst.copy_from_slice(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use alya_machine::NoRecord;

    const L: usize = 4;

    /// Packs per-lane arrays `xs[l][i][j]` into `out[i][j].0[l]`.
    fn pack<const I: usize, const J: usize>(xs: &[[[f64; J]; I]; L]) -> [[Lanes<L>; J]; I] {
        let mut out = [[Lanes([0.0; L]); J]; I];
        for (l, x) in xs.iter().enumerate() {
            for i in 0..I {
                for j in 0..J {
                    out[i][j].0[l] = x[i][j];
                }
            }
        }
        out
    }

    /// Four distinct, well-conditioned 3×3 matrices.
    fn lane_matrices() -> [[[f64; 3]; 3]; L] {
        std::array::from_fn(|l| {
            let t = l as f64;
            [
                [2.0 + t, 0.5, 0.1 * t],
                [0.2, 1.5 - 0.3 * t, 0.3],
                [0.1, 0.4 * t, 3.0],
            ]
        })
    }

    #[test]
    fn det_and_inv_are_bitwise_equal_per_lane() {
        let ms = lane_matrices();
        let p = pack(&ms);
        let det = ops::det3(&p, &mut NoRecord);
        let inv = ops::inv3(&p, det, &mut NoRecord);
        for (l, m) in ms.iter().enumerate() {
            let d = ops::det3(m, &mut NoRecord);
            assert_eq!(det.0[l].to_bits(), d.to_bits());
            let iv = ops::inv3(m, d, &mut NoRecord);
            for r in 0..3 {
                for c in 0..3 {
                    assert_eq!(inv[r][c].0[l].to_bits(), iv[r][c].to_bits());
                }
            }
        }
    }

    #[test]
    fn tet4_grads_are_bitwise_equal_per_lane() {
        // Jittered unit tetrahedra, one per lane.
        let coords: [[[f64; 3]; 4]; L] = std::array::from_fn(|l| {
            let j = 0.1 * l as f64;
            [
                [j, 0.0, 0.1],
                [1.2, j, 0.0],
                [0.0, 0.9, 0.2 + j],
                [0.1, 0.1 - j, 1.1],
            ]
        });
        let (g, v) = ops::tet4_grads(&pack(&coords), &mut NoRecord);
        for (l, c) in coords.iter().enumerate() {
            let (gs, vs) = ops::tet4_grads(c, &mut NoRecord);
            assert_eq!(v.0[l].to_bits(), vs.to_bits());
            for a in 0..4 {
                for d in 0..3 {
                    assert_eq!(g[a][d].0[l].to_bits(), gs[a][d].to_bits());
                }
            }
        }
    }

    #[test]
    fn vreman_takes_each_lanes_scalar_branch() {
        // Lane 0 is a zero gradient (α² underflow), lane 3 a pure
        // one-component shear (rank-1 gradient, B_β = 0 exactly), lanes 1
        // and 2 generic.
        let mut ms = lane_matrices();
        ms[0] = [[0.0; 3]; 3];
        ms[3] = [[0.0; 3], [0.7, 0.0, 0.0], [0.0; 3]];
        let out = ops::vreman(&pack(&ms), Lanes::splat(0.1), 0.07, &mut NoRecord);
        for (l, m) in ms.iter().enumerate() {
            let s = ops::vreman(m, 0.1, 0.07, &mut NoRecord);
            assert_eq!(out.0[l].to_bits(), s.to_bits(), "lane {l}");
        }
        assert_eq!((out.0[0], out.0[3]), (0.0, 0.0));
        assert!(out.0[1] > 0.0 && out.0[2] > 0.0);
        // A pack in which every lane exits early is exactly zero.
        let zero = pack(&[[[0.0; 3]; 3]; L]);
        let nut = ops::vreman(&zero, Lanes::splat(0.1), 0.07, &mut NoRecord);
        assert_eq!(nut, Lanes::splat(0.0));
    }
}
