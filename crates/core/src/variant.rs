//! The variant taxonomy (the paper's B / P / RS / RSP / RSPR letters) and
//! the declarative per-variant kernel contracts.

use alya_machine::gpu::{RegisterDemand, REG_OVERHEAD};
use alya_machine::Space;

use crate::kernels;

/// Register budget the kernel contracts are stated against: the paper's
/// 128-register launch bound on the A100 (`-maxrregcount=128` territory —
/// half the hard cap, the occupancy sweet spot the RSPR kernel targets).
pub const CONTRACT_REGISTER_BUDGET: u32 = 128;

/// Private f64 values that fit in [`CONTRACT_REGISTER_BUDGET`]: each f64
/// occupies two 32-bit registers after [`REG_OVERHEAD`] bookkeeping
/// registers are set aside. (128 − 26) / 2 = 51.
pub const CONTRACT_F64_BUDGET: u32 = (CONTRACT_REGISTER_BUDGET - REG_OVERHEAD) / 2;

/// The statically checkable contract of one kernel variant: exact
/// per-element operation counts and register/memory discipline, stated on
/// the canonical audit fixture (any tet4 mesh — the counts are structural
/// and element-invariant; `alya-analyze` verifies this too).
///
/// The counts pin the paper's story numerically: privatization (P) moves
/// the baseline's workspace traffic from global to local memory without
/// touching a single flop; restructuring + specialization (RS) removes
/// ~83 % of the flops; scalar privatization (RSP/RSPR) eliminates the
/// workspace entirely, and the RSPR rewrite shortens live ranges until the
/// whole element fits in the 128-register budget with zero spills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelContract {
    /// Exact floating-point operations per element (1 FMA = 2).
    pub flops: u64,
    /// Exact global loads of nodal/elemental inputs (connectivity,
    /// coordinates, velocity, pressure, temperature, ν_t).
    pub input_loads: u64,
    /// Exact global loads from the RHS region (read-modify-write scatter).
    pub rhs_loads: u64,
    /// Exact global stores to the RHS region (the final scatter).
    pub rhs_stores: u64,
    /// Exact loads from the staged intermediate workspace, and the memory
    /// space they must occur in. `None` — the variant keeps no workspace
    /// and must perform **zero** loads/stores outside the regions above.
    pub workspace_loads: Option<(Space, u64)>,
    /// Exact stores to the staged intermediate workspace (see above).
    pub workspace_stores: Option<(Space, u64)>,
    /// Whether the trace carries `Def`/`Use` private-scalar events for the
    /// register allocator (the privatized-to-scalars variants).
    pub uses_private_scalars: bool,
    /// Peak simultaneously-live private f64 values must not exceed this.
    pub max_pressure: Option<u32>,
    /// Whether allocating at [`CONTRACT_F64_BUDGET`] must spill (`true`:
    /// the variant is *expected* to spill there — RSP; `false`: it must
    /// not — RSPR). `None`: no register story (array-style variants).
    pub spills_at_contract_budget: Option<bool>,
}

impl KernelContract {
    /// Total global load/store operations the contract allows.
    pub fn global_ldst(&self) -> u64 {
        let ws = |o: Option<(Space, u64)>| match o {
            Some((Space::Global, n)) => n,
            _ => 0,
        };
        self.input_loads
            + self.rhs_loads
            + self.rhs_stores
            + ws(self.workspace_loads)
            + ws(self.workspace_stores)
    }
}

/// One of the paper's five source-code variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Baseline: generic, elemental matrices, interleaved global arrays.
    B,
    /// Baseline structure with privatized (local-memory) arrays.
    P,
    /// Restructured + specialized, interleaved global arrays.
    Rs,
    /// Restructured + specialized + privatized to scalars.
    Rsp,
    /// RSP + immediate per-node scatter (GPU-oriented).
    Rspr,
}

impl Variant {
    /// All variants, in the paper's presentation order.
    pub const ALL: [Variant; 5] = [
        Variant::B,
        Variant::P,
        Variant::Rs,
        Variant::Rsp,
        Variant::Rspr,
    ];

    /// The paper's letter code.
    pub fn name(self) -> &'static str {
        match self {
            Variant::B => "B",
            Variant::P => "P",
            Variant::Rs => "RS",
            Variant::Rsp => "RSP",
            Variant::Rspr => "RSPR",
        }
    }

    /// One-line description for reports.
    pub fn description(self) -> &'static str {
        match self {
            Variant::B => "baseline (generic, elemental matrices, global arrays)",
            Variant::P => "baseline + privatized local arrays",
            Variant::Rs => "restructured + specialized, global arrays",
            Variant::Rsp => "restructured + specialized + privatized scalars",
            Variant::Rspr => "RSP + immediate scatter (GPU-oriented)",
        }
    }

    /// Workspace slots per element (0 for the scalar-private variants).
    pub fn nvalues(self) -> usize {
        match self {
            Variant::B | Variant::P => kernels::baseline::NVALUES,
            Variant::Rs => kernels::rs::NVALUES,
            Variant::Rsp | Variant::Rspr => 0,
        }
    }

    /// Number of distinct intermediate arrays in the source (reporting).
    pub fn num_arrays(self) -> usize {
        match self {
            Variant::B | Variant::P => kernels::baseline::NUM_ARRAYS,
            Variant::Rs => kernels::rs::NUM_ARRAYS,
            Variant::Rsp | Variant::Rspr => 0,
        }
    }

    /// Memory space of the workspace, if the variant uses one.
    pub fn workspace_space(self) -> Option<Space> {
        match self {
            Variant::B | Variant::Rs => Some(Space::Global),
            Variant::P => Some(Space::Local),
            Variant::Rsp | Variant::Rspr => None,
        }
    }

    /// Whether the element type / properties / turbulence model are
    /// compile-time specialized.
    pub fn is_specialized(self) -> bool {
        matches!(self, Variant::Rs | Variant::Rsp | Variant::Rspr)
    }

    /// Whether intermediates are thread-private.
    pub fn is_privatized(self) -> bool {
        matches!(self, Variant::P | Variant::Rsp | Variant::Rspr)
    }

    /// Whether the variant needs the ν_t precompute pass (the generic
    /// baseline does; the specialized variants fold it in).
    pub fn needs_nut_pass(self) -> bool {
        !self.is_specialized()
    }

    /// The variant's declarative kernel contract (see [`KernelContract`]).
    ///
    /// Every traffic count is a **closed-form phase-by-phase formula** over
    /// the kernel source (`kernels::baseline` / `kernels::rs` /
    /// `gather::rhs_slots_per_element`) — nothing measured-and-pinned, so a
    /// kernel edit that changes traffic shows up as a formula/code mismatch
    /// in the `alya-analyze` audit, which re-derives the counts from live
    /// traces. Flop counts and the register story remain pinned
    /// measurements (they are what the audit certifies).
    pub fn contract(self) -> KernelContract {
        match self {
            // Generic gather: conn + coord + vel + pres + temp per node,
            // plus the ν_t value from the precompute pass.
            Variant::B => KernelContract {
                flops: 6084,
                input_loads: kernels::baseline::input_loads_per_element(),
                rhs_loads: crate::gather::rhs_slots_per_element(),
                rhs_stores: crate::gather::rhs_slots_per_element(),
                workspace_loads: Some((Space::Global, kernels::baseline::ws_loads_per_element())),
                workspace_stores: Some((Space::Global, kernels::baseline::ws_stores_per_element())),
                uses_private_scalars: false,
                max_pressure: None,
                spills_at_contract_budget: None,
            },
            // P is B with the workspace privatized: identical flops,
            // identical traffic volume, moved wholesale to local memory.
            Variant::P => KernelContract {
                workspace_loads: Some((Space::Local, kernels::baseline::ws_loads_per_element())),
                workspace_stores: Some((Space::Local, kernels::baseline::ws_stores_per_element())),
                ..Variant::B.contract()
            },
            // Specialization drops the temperature gather (constant
            // properties) and the ν_t pass (on-the-fly Vreman);
            // restructuring shrinks the workspace to 103 slots (175 stores
            // / 725 loads with accumulator re-touches — see the formulas).
            Variant::Rs => KernelContract {
                flops: 1067,
                input_loads: kernels::rs::input_loads_per_element(),
                rhs_loads: crate::gather::rhs_slots_per_element(),
                rhs_stores: crate::gather::rhs_slots_per_element(),
                workspace_loads: Some((Space::Global, kernels::rs::ws_loads_per_element())),
                workspace_stores: Some((Space::Global, kernels::rs::ws_stores_per_element())),
                uses_private_scalars: false,
                max_pressure: None,
                spills_at_contract_budget: None,
            },
            // Scalars in registers: zero workspace traffic in any space;
            // 3 fewer flops than RS (the interleaved-array address math
            // carried a few redundant ops). Peak pressure 54 — three
            // values over the 51-value contract budget, so RSP *must*
            // spill there (that residual spill is RSPR's reason to exist).
            Variant::Rsp => KernelContract {
                flops: 1064,
                input_loads: kernels::rs::input_loads_per_element(),
                rhs_loads: crate::gather::rhs_slots_per_element(),
                rhs_stores: crate::gather::rhs_slots_per_element(),
                workspace_loads: None,
                workspace_stores: None,
                uses_private_scalars: true,
                max_pressure: Some(54),
                spills_at_contract_budget: Some(true),
            },
            // Immediate scatter shortens live ranges: peak pressure 51
            // fits the 128-register budget exactly, zero spills.
            Variant::Rspr => KernelContract {
                max_pressure: Some(CONTRACT_F64_BUDGET),
                spills_at_contract_budget: Some(false),
                ..Variant::Rsp.contract()
            },
        }
    }

    /// Register-demand model for the GPU (see
    /// [`alya_machine::gpu::RegisterDemand`]): array-style kernels are
    /// sized by their workspace catalog, scalar-private kernels by the
    /// measured live-value pressure.
    pub fn register_demand(self, measured_pressure: u32) -> RegisterDemand {
        match self {
            Variant::B | Variant::P | Variant::Rs => RegisterDemand::ArrayStyle {
                values_per_elem: self.nvalues() as u32,
            },
            Variant::Rsp | Variant::Rspr => RegisterDemand::Measured {
                pressure: measured_pressure,
            },
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_sizes_mirror_the_paper() {
        // Paper: 430 values in 32 arrays -> RS reduces to 130 in 13.
        // Ours: 441 in 25 -> 103 in 13 -> 0 (the footprint trajectory).
        assert!(Variant::B.nvalues() > 400);
        assert!((100..150).contains(&Variant::Rs.nvalues()));
        assert_eq!(Variant::ALL.map(Variant::nvalues), [441, 441, 103, 0, 0]);
        assert_eq!(Variant::B.num_arrays(), 25);
        assert_eq!(Variant::Rs.num_arrays(), 13);
        assert_eq!(Variant::Rsp.nvalues(), 0);
    }

    #[test]
    fn taxonomy_flags() {
        assert!(!Variant::B.is_specialized());
        assert!(!Variant::B.is_privatized());
        assert!(Variant::P.is_privatized());
        assert!(!Variant::P.is_specialized());
        assert!(Variant::Rs.is_specialized());
        assert!(!Variant::Rs.is_privatized());
        assert!(Variant::Rsp.is_specialized() && Variant::Rsp.is_privatized());
        assert!(Variant::B.needs_nut_pass());
        assert!(Variant::P.needs_nut_pass());
        assert!(!Variant::Rsp.needs_nut_pass());
    }

    #[test]
    fn workspace_spaces() {
        assert_eq!(Variant::B.workspace_space(), Some(Space::Global));
        assert_eq!(Variant::P.workspace_space(), Some(Space::Local));
        assert_eq!(Variant::Rs.workspace_space(), Some(Space::Global));
        assert_eq!(Variant::Rspr.workspace_space(), None);
    }

    #[test]
    fn names_round_trip() {
        let names: Vec<&str> = Variant::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(names, vec!["B", "P", "RS", "RSP", "RSPR"]);
        assert_eq!(Variant::Rsp.to_string(), "RSP");
    }

    #[test]
    fn contracts_encode_the_papers_story() {
        // Budget arithmetic: (128 - 26) / 2 = 51 private f64 values.
        assert_eq!(CONTRACT_F64_BUDGET, 51);
        let b = Variant::B.contract();
        let p = Variant::P.contract();
        // Privatization: same flops, same traffic, different space.
        assert_eq!(b.flops, p.flops);
        assert_eq!(b.workspace_loads.unwrap().1, p.workspace_loads.unwrap().1);
        assert_eq!(b.workspace_loads.unwrap().0, Space::Global);
        assert_eq!(p.workspace_loads.unwrap().0, Space::Local);
        // Restructuring removes > 80 % of the flops.
        let rs = Variant::Rs.contract();
        assert!(rs.flops * 5 < b.flops);
        // Scalar privatization: no workspace at all, register story on.
        let rsp = Variant::Rsp.contract();
        let rspr = Variant::Rspr.contract();
        assert!(rsp.workspace_loads.is_none() && rsp.workspace_stores.is_none());
        assert!(rsp.uses_private_scalars && rspr.uses_private_scalars);
        // The RSPR pitch: RSP spills at the contract budget, RSPR fits.
        assert_eq!(rsp.spills_at_contract_budget, Some(true));
        assert_eq!(rspr.spills_at_contract_budget, Some(false));
        assert!(rspr.max_pressure.unwrap() <= CONTRACT_F64_BUDGET);
        assert!(rsp.max_pressure.unwrap() > CONTRACT_F64_BUDGET);
        // Global traffic collapses monotonically along the taxonomy.
        assert!(p.global_ldst() < b.global_ldst());
        assert!(rsp.global_ldst() < rs.global_ldst());
        assert_eq!(rsp.global_ldst(), 56);
    }

    #[test]
    fn register_demand_kinds() {
        use RegisterDemand::*;
        assert!(matches!(
            Variant::B.register_demand(0),
            ArrayStyle { values_per_elem } if values_per_elem > 400
        ));
        assert!(matches!(
            Variant::Rsp.register_demand(55),
            Measured { pressure: 55 }
        ));
    }
}
