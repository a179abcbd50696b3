//! Multi-device simulation: execute a partitioned design across a
//! [`MultiFpgaPlatform`] schedule.
//!
//! Partitioning never changes what a design computes — the cut moves
//! controllers onto other devices, and every cut memory edge becomes an
//! explicit inter-board channel that streams exactly the values the
//! on-chip memory would have held. The functional outputs of a
//! partitioned design are therefore **bit-identical** to the
//! unpartitioned run; what changes is timing. [`simulate_partitioned`]
//! runs the ordinary single-board simulation on the chosen backend (the
//! global controller schedule is unchanged — partitions still
//! synchronize through their parents, now across the link) and adds the
//! exposed link cycles of the partitioning's channels: stream occupancy
//! serialized on the shared link bandwidth, plus first-word latency per
//! refill for channels in sequential scopes.

use dhdl_core::Design;
use dhdl_synth::partition::{partition, Partitioning};
use dhdl_target::{MultiFpgaPlatform, Platform};

use crate::compile::{simulate_with, Backend};
use crate::error::Result;
use crate::interp::{Bindings, SimResult};

/// The result of a multi-device simulation.
#[derive(Debug, Clone)]
pub struct MultiSimResult {
    /// The functional simulation result. `result.cycles` includes the
    /// exposed link cycles; outputs are bit-identical to the
    /// unpartitioned run.
    pub result: SimResult,
    /// Exposed inter-board link cycles included in `result.cycles`
    /// (zero when the design was not cut).
    pub link_cycles: f64,
    /// Devices the partitioning actually uses (1 means the design ran
    /// whole on one device).
    pub devices_used: u32,
}

impl MultiSimResult {
    /// Final contents of the off-chip memory named `name` (delegates to
    /// [`SimResult::output`]).
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`SimResult::output`].
    pub fn output(&self, name: &str) -> Result<&[f64]> {
        self.result.output(name)
    }
}

/// Simulate a design on `k` devices, partitioning it first.
///
/// `k <= 1` is identical to [`simulate_with`] on the single-board
/// platform — the partitioning pass is not consulted at all. For
/// `k > 1` the placer cuts the design (or leaves it whole if it fits one
/// device) and the run is scored with [`simulate_partitioned`].
///
/// # Errors
///
/// Exactly the errors of [`simulate_with`] — partitioning itself cannot
/// fail.
pub fn simulate_multi(
    backend: Backend,
    design: &Design,
    platform: &Platform,
    k: u32,
    bindings: &Bindings,
) -> Result<MultiSimResult> {
    if k <= 1 {
        let result = simulate_with(backend, design, platform, bindings)?;
        return Ok(MultiSimResult {
            result,
            link_cycles: 0.0,
            devices_used: 1,
        });
    }
    let multi = MultiFpgaPlatform::from_platform(platform, k);
    let parts = partition(design, multi.device(), &multi.link, k);
    simulate_partitioned(backend, design, &multi, &parts, bindings)
}

/// Simulate a design under an already-computed [`Partitioning`].
///
/// A single (uncut) partitioning is identical to [`simulate_with`] on
/// the base platform. A real cut runs the same single-board simulation —
/// outputs are bit-identical to the unpartitioned design — and adds
/// `parts.link_cycles(&multi.link)` to the cycle count.
///
/// # Errors
///
/// Exactly the errors of [`simulate_with`].
pub fn simulate_partitioned(
    backend: Backend,
    design: &Design,
    multi: &MultiFpgaPlatform,
    parts: &Partitioning,
    bindings: &Bindings,
) -> Result<MultiSimResult> {
    let _span = dhdl_obs::span_arg(
        "simulate_partitioned",
        "devices",
        u64::from(parts.devices_used()),
    );
    let mut result = simulate_with(backend, design, &multi.base, bindings)?;
    if parts.is_single() {
        return Ok(MultiSimResult {
            result,
            link_cycles: 0.0,
            devices_used: 1,
        });
    }
    let link_cycles = parts.link_cycles(&multi.link);
    result.cycles += link_cycles;
    Ok(MultiSimResult {
        result,
        link_cycles,
        devices_used: parts.devices_used(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::simulate;
    use dhdl_core::{by, DType, DesignBuilder};
    use dhdl_synth::partition::{Channel, CutKind, Partition};
    use dhdl_synth::Netlist;
    use dhdl_target::Resources;

    /// A small tiled square-then-double chain with real outputs.
    fn chain() -> Design {
        let n = 256u64;
        let tile = 64u64;
        let mut b = DesignBuilder::new("chain");
        let x = b.off_chip("x", DType::F32, &[n]);
        let y = b.off_chip("y", DType::F32, &[n]);
        b.sequential(|b| {
            b.meta_pipe(&[by(n, tile)], 1, |b, iters| {
                let i = iters[0];
                let xt = b.bram("xT", DType::F32, &[tile]);
                let mt = b.bram("mT", DType::F32, &[tile]);
                b.tile_load(x, xt, &[i], &[tile], 1);
                b.pipe(&[by(tile, 1)], 1, |b, it| {
                    let v = b.load(xt, &[it[0]]);
                    let w = b.mul(v, v);
                    b.store(mt, &[it[0]], w);
                });
                b.pipe(&[by(tile, 1)], 1, |b, it| {
                    let v = b.load(mt, &[it[0]]);
                    let w = b.add(v, v);
                    b.store(mt, &[it[0]], w);
                });
                b.tile_store(y, mt, &[i], &[tile], 1);
            });
        });
        b.finish().unwrap()
    }

    fn inputs() -> Bindings {
        Bindings::new().bind("x", (0..256).map(f64::from).collect())
    }

    /// A hand-built two-device partitioning over `chain()` — small
    /// designs are never cut by the placer, so timing composition is
    /// tested against a synthetic cut with known channel traffic.
    fn synthetic_cut(design: &Design) -> Partitioning {
        let mem = design.find_all(|n| n.name.as_deref() == Some("mT"))[0];
        Partitioning {
            num_devices: 2,
            cut: CutKind::LeafRanges,
            partitions: vec![
                Partition {
                    device: 0,
                    units: vec![],
                    net: Netlist::default(),
                    endpoints: Resources::default(),
                },
                Partition {
                    device: 1,
                    units: vec![],
                    net: Netlist::default(),
                    endpoints: Resources::default(),
                },
            ],
            channels: vec![Channel {
                src: 0,
                dst: 1,
                mem,
                words: 64,
                word_bits: 32,
                transfers: 4,
                overlapped: false,
            }],
        }
    }

    #[test]
    fn k1_is_identical_to_single_board() {
        let d = chain();
        let p = Platform::maia();
        let base = simulate(&d, &p, &inputs()).unwrap();
        let m = simulate_multi(Backend::Interp, &d, &p, 1, &inputs()).unwrap();
        assert_eq!(m.devices_used, 1);
        assert_eq!(m.link_cycles, 0.0);
        assert_eq!(m.result.cycles, base.cycles);
        assert_eq!(m.result.output("y").unwrap(), base.output("y").unwrap());
    }

    #[test]
    fn small_design_stays_whole_at_k4() {
        let d = chain();
        let p = Platform::maia();
        let base = simulate(&d, &p, &inputs()).unwrap();
        let m = simulate_multi(Backend::Interp, &d, &p, 4, &inputs()).unwrap();
        assert_eq!(m.devices_used, 1);
        assert_eq!(m.result.cycles, base.cycles);
        assert_eq!(m.result.output("y").unwrap(), base.output("y").unwrap());
    }

    #[test]
    fn cut_preserves_outputs_and_adds_link_cycles() {
        let d = chain();
        let p = Platform::maia();
        let multi = MultiFpgaPlatform::from_platform(&p, 2);
        let parts = synthetic_cut(&d);
        assert!(!parts.is_single());
        let base = simulate(&d, &p, &inputs()).unwrap();
        let m = simulate_partitioned(Backend::Interp, &d, &multi, &parts, &inputs()).unwrap();
        // Outputs are bit-identical: partitioning never changes values.
        assert_eq!(m.result.output("y").unwrap(), base.output("y").unwrap());
        // Cycles grow by exactly the exposed link cycles.
        let expected = parts.link_cycles(&multi.link);
        assert!(expected > 0.0);
        assert_eq!(m.link_cycles, expected);
        assert_eq!(m.result.cycles, base.cycles + expected);
        assert_eq!(m.devices_used, 2);
    }

    #[test]
    fn backends_agree_bitwise_on_partitioned_schedules() {
        let d = chain();
        let p = Platform::maia();
        let multi = MultiFpgaPlatform::from_platform(&p, 2);
        let parts = synthetic_cut(&d);
        let i = simulate_partitioned(Backend::Interp, &d, &multi, &parts, &inputs()).unwrap();
        let t = simulate_partitioned(Backend::Tape, &d, &multi, &parts, &inputs()).unwrap();
        assert_eq!(t.result.bit_diff(&i.result), None);
        assert_eq!(t.link_cycles.to_bits(), i.link_cycles.to_bits());
    }
}
