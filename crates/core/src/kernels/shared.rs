//! Scaffolding shared by the kernel variants.
//!
//! The four kernels repeat two kinds of code verbatim: the
//! array-style kernels (B, RS) share their gather prefix and their
//! scatter readback, and the scalar-private kernels (RSP, RSPR) share the
//! whole specialized prologue — gather into tracked privates, constant
//! geometry, velocity gradient, on-the-fly Vreman — plus the per-point
//! convection vector, the mean-pressure/effective-viscosity pair, and the
//! diffusion flux contraction. These helpers are those pieces, factored
//! once.
//!
//! They must be *bitwise* and *event-stream* neutral: every caller's
//! recorded trace is pinned by the contract checker (pass 1) and by the
//! bitwise equivalence suite, so a helper that reorders one load or one
//! `Def` fails both at once. Helpers take the caller's catalog offsets and
//! its `PrivAlloc` so the address and id sequences are exactly what the
//! inlined code produced.

use alya_fem::element::Tet4;
use alya_machine::Recorder;

use crate::gather::Frame;
use crate::input::AssemblyInput;
use crate::kernels::{get3, PrivAlloc, Pv};
use crate::lanes::Lane;
use crate::layout::{self, Layout};
use crate::ops;
use crate::workspace::Ws;

/// Gathers coordinates, velocity and pressure into the workspace arrays at
/// the caller's catalog offsets — the common gather prefix of the
/// array-style kernels.
#[inline]
pub(crate) fn gather_nodal_into_ws<V: Lane, F: Frame<V>, R: Recorder>(
    input: &AssemblyInput,
    frame: &F,
    lay: &Layout,
    ws: &mut Ws<V>,
    (elcod, elvel, elpre): (usize, usize, usize),
    rec: &mut R,
) {
    let coords = frame.coords(input, rec);
    for a in 0..4 {
        ws.st3(elcod + 3 * a, coords[a], lay, rec);
    }
    let vel = frame.velocity(input, rec);
    for a in 0..4 {
        ws.st3(elvel + 3 * a, vel[a], lay, rec);
    }
    let pre = frame.nodal_scalar(input.pressure, layout::PRES_BASE, rec);
    for a in 0..4 {
        ws.st(elpre + a, pre[a], lay, rec);
    }
}

/// Reads the completed 12-entry elemental RHS back from the workspace and
/// scatters it — the common epilogue of the array-style kernels.
#[inline]
pub(crate) fn scatter_rhs_from_ws<V: Lane, F: Frame<V>, R: Recorder>(
    frame: &mut F,
    elrhs: usize,
    ws: &mut Ws<V>,
    lay: &Layout,
    rec: &mut R,
) {
    let mut out = [[V::splat(0.0); 3]; 4];
    for a in 0..4 {
        for d in 0..3 {
            out[a][d] = ws.ld(elrhs + 3 * a + d, lay, rec);
        }
    }
    frame.scatter_elemental(&out, rec);
}

/// Everything the scalar-private kernels compute before their accumulation
/// phases: the private state that outlives the prologue.
pub(crate) struct SpecPrologue<V> {
    /// Gathered nodal velocities.
    pub vel: [[Pv<V>; 3]; 4],
    /// Gathered nodal pressures.
    pub pre: [Pv<V>; 4],
    /// Constant shape-function gradients.
    pub grads: [[Pv<V>; 3]; 4],
    /// Element volume.
    pub vol: Pv<V>,
    /// Constant velocity gradient tensor.
    pub gve: [[Pv<V>; 3]; 3],
    /// Vreman turbulent viscosity, one value per element.
    pub nut: Pv<V>,
}

/// The shared RSP/RSPR prologue: gather straight into tracked private
/// values, constant geometry (coordinates die inside), constant velocity
/// gradient, Vreman ν_t on the fly. Private ids 0..=50, in this exact
/// definition order — the register-pressure pins of both contracts depend
/// on it.
#[inline]
pub(crate) fn specialized_prologue<V: Lane, F: Frame<V>, R: Recorder>(
    input: &AssemblyInput,
    frame: &F,
    pa: &mut PrivAlloc,
    rec: &mut R,
) -> SpecPrologue<V> {
    // --- Gather straight into private values. ---
    let coords_raw = frame.coords(input, rec);
    let coords: [[Pv<V>; 3]; 4] = [
        pa.def3(coords_raw[0], rec),
        pa.def3(coords_raw[1], rec),
        pa.def3(coords_raw[2], rec),
        pa.def3(coords_raw[3], rec),
    ];
    let vel_raw = frame.velocity(input, rec);
    let vel: [[Pv<V>; 3]; 4] = [
        pa.def3(vel_raw[0], rec),
        pa.def3(vel_raw[1], rec),
        pa.def3(vel_raw[2], rec),
        pa.def3(vel_raw[3], rec),
    ];
    let pre_raw = frame.nodal_scalar(input.pressure, layout::PRES_BASE, rec);
    let pre: [Pv<V>; 4] = [
        pa.def(pre_raw[0], rec),
        pa.def(pre_raw[1], rec),
        pa.def(pre_raw[2], rec),
        pa.def(pre_raw[3], rec),
    ];

    // --- Geometry once; coordinates die here. ---
    let elcod = [
        get3(&coords[0], rec),
        get3(&coords[1], rec),
        get3(&coords[2], rec),
        get3(&coords[3], rec),
    ];
    let (grads_raw, vol_raw) = ops::tet4_grads(&elcod, rec);
    let grads: [[Pv<V>; 3]; 4] = [
        pa.def3(grads_raw[0], rec),
        pa.def3(grads_raw[1], rec),
        pa.def3(grads_raw[2], rec),
        pa.def3(grads_raw[3], rec),
    ];
    let vol = pa.def(vol_raw, rec);

    // --- Constant velocity gradient. ---
    let mut gve_raw = [[V::splat(0.0); 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            let mut gv = V::splat(0.0);
            for a in 0..4 {
                gv += grads[a][i].get(rec) * vel[a][j].get(rec);
            }
            rec.fma(4);
            gve_raw[i][j] = gv;
        }
    }
    let gve: [[Pv<V>; 3]; 3] = [
        pa.def3(gve_raw[0], rec),
        pa.def3(gve_raw[1], rec),
        pa.def3(gve_raw[2], rec),
    ];

    // --- Vreman on the fly. ---
    let gve_for_nut = [get3(&gve[0], rec), get3(&gve[1], rec), get3(&gve[2], rec)];
    rec.flop(2);
    let delta = vol.get(rec).cbrt();
    let nut = pa.def(ops::vreman(&gve_for_nut, delta, input.vreman_c, rec), rec);

    SpecPrologue {
        vel,
        pre,
        grads,
        vol,
        gve,
        nut,
    }
}

/// One Gauss point's convection vector `ρ (u·∇)u` from private state:
/// transient advection vector (defined, then immediately consumed), then
/// the contraction against the velocity gradient.
#[inline]
pub(crate) fn gauss_convection<V: Lane, R: Recorder>(
    g: usize,
    vel: &[[Pv<V>; 3]; 4],
    gve: &[[Pv<V>; 3]; 3],
    rho: f64,
    pa: &mut PrivAlloc,
    rec: &mut R,
) -> [Pv<V>; 3] {
    let mut adv_raw = [V::splat(0.0); 3];
    for (d, adv_d) in adv_raw.iter_mut().enumerate() {
        let mut adv = V::splat(0.0);
        for a in 0..4 {
            adv += V::splat(Tet4::SHAPE[g][a]) * vel[a][d].get(rec);
        }
        rec.fma(4);
        *adv_d = adv;
    }
    let adv = pa.def3(adv_raw, rec);
    let mut con_raw = [V::splat(0.0); 3];
    for (d, con_d) in con_raw.iter_mut().enumerate() {
        let mut con = V::splat(0.0);
        for i in 0..3 {
            con += adv[i].get(rec) * gve[i][d].get(rec);
        }
        rec.fma(3);
        rec.flop(1);
        *con_d = V::splat(rho) * con;
    }
    pa.def3(con_raw, rec)
}

/// The mean elemental pressure and the effective viscosity `μ + ρ ν_t`,
/// defined as two private values.
#[inline]
pub(crate) fn mean_pressure_and_mu_eff<V: Lane, R: Recorder>(
    pre: &[Pv<V>; 4],
    nut: Pv<V>,
    rho: f64,
    mu: f64,
    pa: &mut PrivAlloc,
    rec: &mut R,
) -> (Pv<V>, Pv<V>) {
    rec.flop(4);
    let pbar = pa.def(
        V::splat(0.25) * (pre[0].get(rec) + pre[1].get(rec) + pre[2].get(rec) + pre[3].get(rec)),
        rec,
    );
    rec.flop(2);
    let mu_eff = pa.def(V::splat(mu) + V::splat(rho) * nut.get(rec), rec);
    (pbar, mu_eff)
}

/// The diffusion flux for one `(node, component)`: `Σ_b (∇N_a·∇N_b) u_b`.
#[inline]
pub(crate) fn diffusion_flux<V: Lane, R: Recorder>(
    a: usize,
    d: usize,
    grads: &[[Pv<V>; 3]; 4],
    vel: &[[Pv<V>; 3]; 4],
    rec: &mut R,
) -> V {
    let mut flux = V::splat(0.0);
    for b in 0..4 {
        let mut gdot = V::splat(0.0);
        for i in 0..3 {
            gdot += grads[a][i].get(rec) * grads[b][i].get(rec);
        }
        rec.fma(3);
        rec.fma(1);
        flux += gdot * vel[b][d].get(rec);
    }
    flux
}
