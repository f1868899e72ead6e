//! The generated inputs: the seeded velocity perturbation every workload
//! starts from, and the computed working-set sizes.

use alya_fem::material::ConstantProperties;
use alya_mesh::Rng64;

/// Friction velocity of the log-law inflow, m/s.
const U_STAR: f64 = 0.4;
/// Roughness length (Bolund: water upstream), m.
const Z0: f64 = 3e-4;
/// Von Kármán constant.
const KAPPA: f64 = 0.4;
/// Fluid properties of every case.
pub const PROPS: ConstantProperties = ConstantProperties::AIR;
/// Weak synoptic pressure-gradient forcing.
pub const BODY_FORCE: [f64; 3] = [1.2e-3, 0.0, 0.0];

/// A smooth, seeded velocity perturbation: three Fourier modes with
/// random wave vectors, phases and directions. Relative amplitude 2 %,
/// so every seed is the same flow regime and no step fails.
#[derive(Debug, Clone)]
pub struct Perturbation {
    modes: [([f64; 3], f64, [f64; 3]); 3],
}

impl Perturbation {
    /// The perturbation of `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng64::new(seed ^ 0x005e_ed0f_a1a5);
        let mut mode = || {
            let k = [0; 3].map(|_: i32| rng.range_f64(1.0, 4.0));
            let phase = rng.range_f64(0.0, std::f64::consts::TAU);
            let dir = [0; 3].map(|_: i32| rng.range_f64(-1.0, 1.0));
            (k, phase, dir)
        };
        Self {
            modes: [mode(), mode(), mode()],
        }
    }

    /// Relative perturbation vector at `p` (each component within ±2 %).
    pub fn at(&self, p: [f64; 3]) -> [f64; 3] {
        let mut d = [0.0; 3];
        for (k, phase, dir) in &self.modes {
            let s = (k[0] * p[0] + k[1] * p[1] + k[2] * p[2] + phase).sin();
            for c in 0..3 {
                d[c] += 0.02 / 3.0 * dir[c] * s;
            }
        }
        d
    }

    /// `base(p)` plus the perturbation scaled by `speed`.
    pub fn apply(&self, speed: f64, base: [f64; 3], p: [f64; 3]) -> [f64; 3] {
        let d = self.at(p);
        [
            base[0] + speed * d[0],
            base[1] + speed * d[1],
            base[2] + speed * d[2],
        ]
    }
}

/// Log-law wind speed at height `z`.
pub fn log_law(z: f64) -> f64 {
    U_STAR / KAPPA * (z.max(Z0 * 1.01) / Z0).ln()
}

/// Computed bytes one assembly streams: coordinates, connectivity,
/// velocity, pressure, temperature and the RHS.
pub fn assembly_bytes(elements: usize, nodes: usize) -> usize {
    elements * 4 * 4 + nodes * (3 * 8 + 3 * 8 + 8 + 8 + 3 * 8)
}

/// Computed bytes one fractional step streams beyond one assembly: lumped
/// mass and preconditioner diagonal, five CG vectors, pressure and its
/// scratch, and three stage velocities.
pub fn solver_bytes(nodes: usize) -> usize {
    nodes * (2 * 8 + 5 * 8 + 2 * 8 + 3 * 3 * 8)
}
