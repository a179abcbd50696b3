//! The simulator's timing model — the one place cycles are computed.
//!
//! The schedule resolves what the estimator only approximates: `MetaPipe`
//! stages follow the full pipeline recurrence over per-wave stage
//! durations (not the static `(N−1)·max + Σ` bound), off-chip transfers
//! contend on a shared [`DramTimeline`] at their actual issue times, and
//! pipes pay a counter re-initialization bubble per outer-dimension wrap.
//! The gap between this and `dhdl_estimate::estimate_cycles` is the
//! runtime-estimation error reported in Table III.
//!
//! Timing is a static function of the design: pipe, fold and tile
//! durations are closed-form in static shapes, and the wave recurrence
//! composes them. [`schedule`] therefore walks the controller hierarchy
//! once, without data. Only the first member of each wave of a
//! replicated outer controller is timed — the other members run
//! concurrently and contribute only through the transfer concurrency
//! multiplier. Both backends consume this pass: the interpreter runs it
//! after a successful functional run, and the tape compiler runs it once
//! at compile time.

use std::collections::BTreeMap;

use dhdl_core::{Design, MemFold, NodeId, NodeKind, OuterSpec, Pattern, PipeSpec, TileSpec};
use dhdl_synth::chardata::{prim_cost, reduce_tree_latency};
use dhdl_synth::pipe_depth;
use dhdl_target::Platform;

use crate::interp::{ProfileEntry, SimResult};
use crate::memory::DramTimeline;
use crate::trace::{Trace, TraceEvent};

/// Per-stage handshake overhead in cycles (matches the generated control).
const STAGE_OVERHEAD: f64 = 2.0;

/// The timing of one full design execution.
#[derive(Debug, Clone, Default)]
pub(crate) struct Timing {
    cycles: f64,
    transfers: usize,
    profile: Vec<ProfileEntry>,
    trace: Trace,
}

impl Timing {
    /// Combine this timing with a functional run's final off-chip
    /// contents.
    pub(crate) fn into_result(self, offchip: BTreeMap<String, Vec<f64>>) -> SimResult {
        SimResult {
            cycles: self.cycles,
            transfers: self.transfers,
            offchip,
            profile: self.profile,
            trace: self.trace,
        }
    }
}

/// Schedule `design` on `platform`.
///
/// Call only for designs whose functional run succeeds: the functional
/// pass owns every structural check, so the schedule assumes every
/// controller it reaches is executable and every tile targets an
/// off-chip memory.
pub(crate) fn schedule(design: &Design, platform: &Platform) -> Timing {
    let _span = dhdl_obs::span!("sim.schedule");
    let mut w = Walk {
        design,
        platform,
        dram: DramTimeline::new(),
        profile: BTreeMap::new(),
        trace: Trace::default(),
    };
    let cycles = w.walk(design.top(), 0.0, 1.0);
    Timing {
        cycles,
        transfers: w.dram.transfers(),
        profile: build_profile(design, &w.profile),
        trace: w.trace,
    }
}

/// Convert raw per-controller accumulators into the profile, heaviest
/// first.
fn build_profile(design: &Design, profile: &BTreeMap<NodeId, (u64, f64)>) -> Vec<ProfileEntry> {
    let mut out: Vec<ProfileEntry> = profile
        .iter()
        .map(|(&ctrl, &(executions, cycles))| ProfileEntry {
            ctrl,
            label: format!(
                "{} {}{}",
                design.kind(ctrl).template_name(),
                ctrl,
                design
                    .node(ctrl)
                    .name
                    .as_deref()
                    .map(|n| format!(" ({n})"))
                    .unwrap_or_default()
            ),
            executions,
            cycles,
        })
        .collect();
    out.sort_by(|a, b| b.cycles.total_cmp(&a.cycles));
    out
}

struct Walk<'a> {
    design: &'a Design,
    platform: &'a Platform,
    dram: DramTimeline,
    profile: BTreeMap<NodeId, (u64, f64)>,
    trace: Trace,
}

impl<'a> Walk<'a> {
    /// Time one execution of `ctrl` starting at `start`, recording it in
    /// the profile and trace. `conc` is the replication concurrency
    /// multiplier applied to transfer durations.
    fn walk(&mut self, ctrl: NodeId, start: f64, conc: f64) -> f64 {
        let dur = self.walk_inner(ctrl, start, conc);
        let e = self.profile.entry(ctrl).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += dur;
        self.trace.events.push(TraceEvent {
            ctrl,
            start,
            end: start + dur,
        });
        dur
    }

    fn walk_inner(&mut self, ctrl: NodeId, start: f64, conc: f64) -> f64 {
        let design = self.design;
        match design.kind(ctrl) {
            NodeKind::Pipe(p) => self.pipe_duration(p),
            NodeKind::Sequential(s) => self.walk_outer(s, false, start, conc),
            NodeKind::MetaPipe(s) => self.walk_outer(s, true, start, conc),
            NodeKind::ParallelCtrl { stages, .. } => {
                let mut max = 0.0f64;
                for &st in stages {
                    let d = self.walk(st, start, conc);
                    max = max.max(d);
                }
                max + STAGE_OVERHEAD
            }
            NodeKind::TileLoad(t) | NodeKind::TileStore(t) => self.tile_duration(t, start, conc),
            _ => unreachable!("the functional pass rejects non-controllers"),
        }
    }

    /// The outer-controller pipeline recurrence over the first member of
    /// each wave. A `Sequential` serializes its stages within a wave and
    /// its waves; a `MetaPipe` starts stage `s` of a wave once stage
    /// `s − 1` of that wave and stage `s` of the previous wave are done.
    fn walk_outer(&mut self, s: &OuterSpec, pipelined: bool, start: f64, conc: f64) -> f64 {
        let total = s.ctr.total_iters();
        let n_stages = s.stages.len() + usize::from(s.fold.is_some());
        let par = u64::from(s.par.max(1));
        let waves = total.div_ceil(par);
        // Finish time of each stage in the previous wave.
        let mut finish = vec![start; n_stages];
        for wave in 0..waves {
            let members = ((wave + 1) * par).min(total) - wave * par;
            let member_conc = conc * members as f64;
            let mut cur = vec![0.0f64; n_stages];
            for (st, &stage) in s.stages.iter().enumerate() {
                let ready = if st == 0 {
                    finish[0]
                } else if pipelined {
                    cur[st - 1].max(finish[st])
                } else {
                    cur[st - 1]
                };
                let d = self.walk(stage, ready, member_conc);
                cur[st] = ready + d + STAGE_OVERHEAD;
            }
            if let Some(f) = s.fold {
                let st = n_stages - 1;
                let ready = if st == 0 {
                    finish[0]
                } else if pipelined {
                    cur[st - 1].max(finish[st])
                } else {
                    cur[st - 1]
                };
                let d = self.fold_duration(&f);
                cur[st] = ready + d + STAGE_OVERHEAD;
            }
            if !pipelined {
                // Sequential: the next wave starts after this one ends.
                let end = cur[n_stages - 1];
                finish = vec![end; n_stages];
            } else {
                finish = cur;
            }
        }
        finish[n_stages - 1] - start + STAGE_OVERHEAD
    }

    /// The implicit fold stage: one pass over the source, `banks` wide,
    /// plus the combining operator's latency.
    fn fold_duration(&self, f: &MemFold) -> f64 {
        let src_len = match self.design.kind(f.src) {
            NodeKind::Bram(b) => b.elements() as usize,
            _ => 1,
        };
        let ty = self.design.ty(f.accum);
        let banks = match self.design.kind(f.accum) {
            NodeKind::Bram(b) => b.banks.max(1),
            _ => 1,
        };
        let lat = prim_cost(f.op.prim(), ty).latency as f64;
        src_len as f64 / f64::from(banks) + lat
    }

    /// One `Pipe`: depth + ceil(iters/par) at II=1, plus a one-cycle
    /// counter re-initialization bubble per outer-dimension wrap (a
    /// control artifact the analytical model ignores).
    fn pipe_duration(&self, p: &PipeSpec) -> f64 {
        let mut depth = pipe_depth(self.design, p) as f64;
        if let (Some(r), Pattern::Reduce(op)) = (&p.reduce, p.pattern) {
            let ty = self.design.ty(r.reg);
            depth += reduce_tree_latency(op.prim(), ty, p.par) as f64;
            depth += prim_cost(op.prim(), ty).latency as f64;
        }
        let total = p.ctr.total_iters();
        let eff_iters = (total as f64 / f64::from(p.par.max(1))).ceil().max(1.0);
        let outer_wraps: f64 = if p.ctr.dims.len() > 1 {
            p.ctr.dims[..p.ctr.dims.len() - 1]
                .iter()
                .map(|d| d.trip_count() as f64)
                .product()
        } else {
            1.0
        };
        depth + eff_iters + outer_wraps + STAGE_OVERHEAD
    }

    /// A tile transfer: a reservation on the shared DRAM channel.
    fn tile_duration(&mut self, t: &TileSpec, start: f64, conc: f64) -> f64 {
        let design = self.design;
        let NodeKind::OffChip { dims } = design.kind(t.offchip) else {
            unreachable!("the functional pass rejects tiles without an off-chip target")
        };
        let elem_bytes = u64::from(design.ty(t.offchip).bits()).div_ceil(8);
        let inner = *t.tile.last().unwrap_or(&1);
        let full_row = dims.last().is_some_and(|&d| d == inner);
        let outer: u64 = t.tile[..t.tile.len().saturating_sub(1)].iter().product();
        let (commands, run_elems) = if full_row || t.tile.len() == 1 {
            (1, inner * outer.max(1))
        } else {
            (outer.max(1), inner)
        };
        // Fixed command latency is pipelined with other traffic and does
        // not occupy the channel; data/issue time queues on the shared
        // channel and scales with the number of replicated transfer
        // units (`conc`).
        let dram = &self.platform.dram;
        let data = dram.burst_cycles(run_elems * elem_bytes) * commands as f64;
        let issue = (dram.command_issue_cycles * commands) as f64;
        let channel = data.max(issue) * conc.max(1.0);
        let queued = self.dram.request(start, channel);
        dram.command_latency_cycles as f64 + queued
    }
}
