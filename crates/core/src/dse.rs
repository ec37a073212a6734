//! Design-space exploration around the paper's published design points.
//!
//! The paper's §4.2–§4.4 narratives *attribute* each machine's
//! performance to one saturated resource: VIRAM's corner turn is limited
//! by its four address generators, Imagine's by its 2-words/cycle
//! off-chip interface, Raw's beam steering by per-tile compute until the
//! DRAM ports saturate. Those are causal claims, and a simulator can
//! check them mechanistically: vary the implicated resource, re-run the
//! kernel, and see whether the cycle count moves.
//!
//! This module sweeps a grid of microarchitectural variants per machine —
//!
//! * **VIRAM**: lanes {4, 8, 16} × address generators {2, 4, 8},
//! * **Imagine**: clusters {4, 8, 16} × memory words/cycle {1, 2, 4},
//! * **Raw**: mesh {2×2, 4×4, 8×8},
//! * **PPC**: L2 size {128 KB … 1 MB},
//! * **DPU**: DPUs/rank {16, 64, 128} × tasklets/DPU {2, 8, 16},
//!
//! — runs every kernel at every point (each run still verified against
//! the golden kernel outputs), renders per-architecture sensitivity
//! tables, and evaluates the §4 attribution claims as [`Finding`]s.
//! The whole sweep is a grid of independent jobs, fanned out over the
//! [`crate::parallel`] pool; results are assembled in grid order so the
//! report is byte-identical at any worker count.

use std::fmt;

use triarch_dpu::DpuConfig;
use triarch_imagine::ImagineConfig;
use triarch_kernels::verify::tolerance;
use triarch_kernels::{Kernel, RunCtx, WorkloadSet};
use triarch_ppc::{PpcConfig, Variant};
use triarch_raw::RawConfig;
use triarch_simcore::{Cycles, SimError};
use triarch_viram::ViramConfig;

use crate::arch::{Architecture, MachineSpec};
use crate::parallel::{run_jobs, PoolStats};
use crate::report::TextTable;

/// One swept design point: a buildable machine plus its grid label.
#[derive(Debug, Clone)]
pub struct DsePoint {
    /// The machine description to build and run.
    pub spec: MachineSpec,
    /// Short grid label, e.g. `lanes=8 ags=4`.
    pub label: String,
    /// Whether this point is the paper's published configuration.
    pub is_paper: bool,
}

/// VIRAM lane counts swept (paper: 8).
pub const VIRAM_LANES: [usize; 3] = [4, 8, 16];
/// VIRAM address-generator counts swept (paper: 4).
pub const VIRAM_AGS: [u32; 3] = [2, 4, 8];
/// Imagine cluster counts swept (paper: 8).
pub const IMAGINE_CLUSTERS: [usize; 3] = [4, 8, 16];
/// Imagine memory-interface widths swept, in words/cycle (paper: 2).
pub const IMAGINE_WPC: [u32; 3] = [1, 2, 4];
/// Raw mesh widths swept (paper: 4, i.e. 16 tiles).
pub const RAW_MESH: [usize; 3] = [2, 4, 8];
/// PPC L2 capacities swept, in KiB (paper: 256).
pub const PPC_L2_KIB: [usize; 4] = [128, 256, 512, 1024];
/// DPU counts per rank swept (reference module: 64, i.e. 128 DPUs over
/// two ranks).
pub const DPU_DPR: [usize; 3] = [16, 64, 128];
/// Tasklets per DPU swept (reference module: 16, saturating the
/// 11-stage revolving pipeline).
pub const DPU_TASKLETS: [usize; 3] = [2, 8, 16];

/// The full design-space grid, in deterministic render order.
#[must_use]
pub fn points() -> Vec<DsePoint> {
    let mut points = Vec::new();
    for lanes in VIRAM_LANES {
        for ags in VIRAM_AGS {
            let mut cfg = ViramConfig::paper();
            cfg.lanes = lanes;
            cfg.dram = cfg.dram.with_strided_words_per_cycle(ags);
            points.push(DsePoint {
                spec: MachineSpec::Viram(cfg),
                label: format!("lanes={lanes} ags={ags}"),
                is_paper: lanes == 8 && ags == 4,
            });
        }
    }
    for clusters in IMAGINE_CLUSTERS {
        for wpc in IMAGINE_WPC {
            let mut cfg = ImagineConfig::paper();
            cfg.clusters = clusters;
            cfg.dram = cfg.dram.with_seq_words_per_cycle(wpc).with_strided_words_per_cycle(wpc);
            points.push(DsePoint {
                spec: MachineSpec::Imagine(cfg),
                label: format!("clusters={clusters} wpc={wpc}"),
                is_paper: clusters == 8 && wpc == 2,
            });
        }
    }
    for mesh in RAW_MESH {
        let mut cfg = RawConfig::paper();
        cfg.mesh_width = mesh;
        points.push(DsePoint {
            spec: MachineSpec::Raw(cfg),
            label: format!("mesh={mesh}x{mesh} tiles={}", mesh * mesh),
            is_paper: mesh == 4,
        });
    }
    for kib in PPC_L2_KIB {
        points.push(DsePoint {
            spec: MachineSpec::Ppc(PpcConfig::with_l2_kib(kib), Variant::Scalar),
            label: format!("l2={kib}K"),
            is_paper: kib == 256,
        });
    }
    for dpr in DPU_DPR {
        for tasklets in DPU_TASKLETS {
            let mut cfg = DpuConfig::paper();
            cfg.dpus_per_rank = dpr;
            cfg.tasklets = tasklets;
            points.push(DsePoint {
                spec: MachineSpec::Dpu(cfg.clone()),
                label: format!("dpus={} tasklets={tasklets}", cfg.dpus()),
                is_paper: dpr == 64 && tasklets == 16,
            });
        }
    }
    points
}

/// One swept run: a design point × kernel cell.
#[derive(Debug, Clone)]
pub struct DseRun {
    /// The architecture row the point belongs to.
    pub arch: Architecture,
    /// The point's grid label.
    pub label: String,
    /// Whether the point is the paper configuration.
    pub is_paper: bool,
    /// The kernel that ran.
    pub kernel: Kernel,
    /// Simulated cycles.
    pub cycles: Cycles,
    /// Whether the output verified against the golden kernel.
    pub verified: bool,
}

/// A completed design-space sweep.
#[derive(Debug, Clone)]
pub struct DseReport {
    /// All runs, in grid (point, kernel) order.
    pub runs: Vec<DseRun>,
}

/// One mechanistic check of a §4 attribution claim.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The claim under test.
    pub name: &'static str,
    /// The measured evidence, rendered.
    pub detail: String,
    /// Whether the sweep confirms the claim.
    pub pass: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", if self.pass { "PASS" } else { "FAIL" }, self.name, self.detail)
    }
}

impl DseReport {
    /// Cycles for one (architecture, point label, kernel) cell.
    #[must_use]
    pub fn cycles(&self, arch: Architecture, label: &str, kernel: Kernel) -> Option<Cycles> {
        self.runs
            .iter()
            .find(|r| r.arch == arch && r.label == label && r.kernel == kernel)
            .map(|r| r.cycles)
    }

    /// Whether every swept run verified against the golden kernels.
    #[must_use]
    pub fn all_verified(&self) -> bool {
        self.runs.iter().all(|r| r.verified)
    }

    /// Ratio of `from`'s cycles to `to`'s cycles for one kernel —
    /// "how much faster did `to` get" (>1 means `to` is faster).
    fn gain(&self, arch: Architecture, from: &str, to: &str, kernel: Kernel) -> Option<f64> {
        let from = self.cycles(arch, from, kernel)?.get() as f64;
        let to = self.cycles(arch, to, kernel)?.get() as f64;
        (to > 0.0).then_some(from / to)
    }

    /// Renders the per-architecture sensitivity tables.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for arch in [
            Architecture::Viram,
            Architecture::Imagine,
            Architecture::Raw,
            Architecture::Ppc,
            Architecture::Dpu,
        ] {
            let mut labels: Vec<(String, bool)> = Vec::new();
            for run in self.runs.iter().filter(|r| r.arch == arch) {
                if !labels.iter().any(|(l, _)| *l == run.label) {
                    labels.push((run.label.clone(), run.is_paper));
                }
            }
            if labels.is_empty() {
                continue;
            }
            out.push_str(&format!("{arch} sensitivity (kilocycles; * = paper design point):\n"));
            let mut t =
                TextTable::new(vec!["config", "Corner Turn", "CSLC", "Beam Steering", "verified"]);
            for (label, is_paper) in labels {
                let mut cells = vec![format!("{}{label}", if is_paper { "*" } else { " " })];
                let mut verified = true;
                for kernel in Kernel::ALL {
                    match self
                        .runs
                        .iter()
                        .find(|r| r.arch == arch && r.label == label && r.kernel == kernel)
                    {
                        Some(run) => {
                            cells.push(format!("{:.0}", run.cycles.to_kilocycles()));
                            verified &= run.verified;
                        }
                        None => cells.push(String::from("-")),
                    }
                }
                cells.push(String::from(if verified { "yes" } else { "FAIL" }));
                t.row(cells);
            }
            out.push_str(&t.to_string());
            out.push('\n');
        }
        out
    }

    /// Evaluates the §4.2–§4.4 attribution claims against the sweep.
    #[must_use]
    pub fn findings(&self) -> Vec<Finding> {
        let mut findings = Vec::new();

        // §4.2: VIRAM's corner turn saturates the four address
        // generators — more AGs help, more lanes do not.
        let ag_gain =
            self.gain(Architecture::Viram, "lanes=8 ags=4", "lanes=8 ags=8", Kernel::CornerTurn);
        let lane_gain =
            self.gain(Architecture::Viram, "lanes=8 ags=4", "lanes=16 ags=4", Kernel::CornerTurn);
        findings.push(match (ag_gain, lane_gain) {
            // Doubling AGs does not give a clean 2x because per-transfer
            // startup and precharge do not scale with AG count; what the
            // claim needs is a decisive asymmetry: AGs move the kernel,
            // lanes do not.
            (Some(ag), Some(lane)) => Finding {
                name: "VIRAM corner turn is AG-bound (SS4.2)",
                detail: format!(
                    "doubling AGs 4->8 gives {ag:.2}x, doubling lanes 8->16 gives {lane:.2}x"
                ),
                pass: ag >= 1.25 && lane <= 1.05,
            },
            _ => missing("VIRAM corner turn is AG-bound (SS4.2)"),
        });

        // §4.2: Imagine's corner turn saturates the 2-words/cycle
        // off-chip interface — more bandwidth helps, more clusters do not.
        let bw_gain = self.gain(
            Architecture::Imagine,
            "clusters=8 wpc=2",
            "clusters=8 wpc=4",
            Kernel::CornerTurn,
        );
        let cluster_gain = self.gain(
            Architecture::Imagine,
            "clusters=8 wpc=2",
            "clusters=16 wpc=2",
            Kernel::CornerTurn,
        );
        findings.push(match (bw_gain, cluster_gain) {
            // As with VIRAM, row-activate/precharge overheads keep the
            // doubled interface short of 2x; the asymmetry against the
            // cluster axis is the mechanistic signal.
            (Some(bw), Some(cl)) => Finding {
                name: "Imagine corner turn is memory-bound (SS4.2)",
                detail: format!(
                    "doubling memory width 2->4 w/c gives {bw:.2}x, \
                     doubling clusters 8->16 gives {cl:.2}x"
                ),
                pass: bw >= 1.25 && cl <= 1.05,
            },
            _ => missing("Imagine corner turn is memory-bound (SS4.2)"),
        });

        // §4.4: Raw's beam steering is compute-bound — quadrupling tiles
        // from 2x2 to 4x4 scales nearly linearly, but by 8x8 the fixed
        // DRAM ports saturate and scaling collapses.
        let small_gain = self.gain(
            Architecture::Raw,
            "mesh=2x2 tiles=4",
            "mesh=4x4 tiles=16",
            Kernel::BeamSteering,
        );
        let big_gain = self.gain(
            Architecture::Raw,
            "mesh=4x4 tiles=16",
            "mesh=8x8 tiles=64",
            Kernel::BeamSteering,
        );
        findings.push(match (small_gain, big_gain) {
            (Some(small), Some(big)) => Finding {
                name: "Raw beam steering is compute-bound until DRAM-port saturation (SS4.4)",
                detail: format!("4->16 tiles gives {small:.2}x, 16->64 tiles gives only {big:.2}x"),
                pass: small >= 2.0 && big >= 1.0 && big < small,
            },
            _ => missing("Raw beam steering is compute-bound until DRAM-port saturation (SS4.4)"),
        });

        // §4.2 (baseline): the G4 corner turn thrashes its power-of-two
        // cache sets via column-stride aliasing — a *conflict* wall, not
        // a capacity wall, so quadrupling the L2 buys nothing.
        let l2_gain = self.gain(Architecture::Ppc, "l2=256K", "l2=1024K", Kernel::CornerTurn);
        findings.push(match l2_gain {
            Some(l2) => Finding {
                name: "PPC corner turn is conflict-bound, not capacity-bound (SS4.2)",
                detail: format!("quadrupling L2 256K->1024K gives {l2:.2}x"),
                pass: l2 <= 1.05,
            },
            None => missing("PPC corner turn is conflict-bound, not capacity-bound (SS4.2)"),
        });

        // Cross-era: the DPU's revolving pipeline only issues at full
        // rate with enough resident tasklets, so the compute-heavy CSLC
        // (software FP) speeds up sharply from 2 to 16 tasklets — while
        // the host-bound corner turn barely moves, because no amount of
        // tasklet parallelism buys back the missing inter-DPU network.
        let cslc_gain = self.gain(
            Architecture::Dpu,
            "dpus=128 tasklets=2",
            "dpus=128 tasklets=16",
            Kernel::Cslc,
        );
        let ct_gain = self.gain(
            Architecture::Dpu,
            "dpus=128 tasklets=2",
            "dpus=128 tasklets=16",
            Kernel::CornerTurn,
        );
        findings.push(match (cslc_gain, ct_gain) {
            (Some(cslc), Some(ct)) => Finding {
                name: "DPU pipeline needs tasklet parallelism; host transfers do not (cross-era)",
                detail: format!(
                    "8x tasklets give CSLC {cslc:.2}x but the corner turn only {ct:.2}x"
                ),
                pass: cslc >= 2.0 && ct <= 1.25,
            },
            _ => missing(
                "DPU pipeline needs tasklet parallelism; host transfers do not \
                          (cross-era)",
            ),
        });

        findings
    }

    /// Renders the findings, one line per claim.
    #[must_use]
    pub fn render_findings(&self) -> String {
        let mut out = String::new();
        for finding in self.findings() {
            out.push_str(&finding.to_string());
            out.push('\n');
        }
        out
    }
}

/// A finding whose inputs were missing from the sweep (grid mismatch).
fn missing(name: &'static str) -> Finding {
    Finding { name, detail: String::from("design point missing from sweep"), pass: false }
}

/// Runs the full design-space sweep on `jobs` pool workers.
///
/// Every (point, kernel) cell is one job: build the swept machine via
/// [`MachineSpec::build`], run the kernel, verify against the golden
/// output. Results are assembled in grid order, so the report is
/// byte-identical at any worker count.
///
/// # Errors
///
/// Propagates the first construction/simulation error in grid order, or
/// [`SimError::JobPanicked`] if a cell panicked. Verification failures
/// are *recorded*, not propagated.
pub fn sweep(workloads: &WorkloadSet, jobs: usize) -> Result<(DseReport, PoolStats), SimError> {
    let mut cells = Vec::new();
    for point in points() {
        for kernel in Kernel::ALL {
            cells.push((point.clone(), kernel));
        }
    }
    let (runs, stats) = run_jobs(jobs, cells, |(point, kernel)| {
        let run = point.spec.run_cell(kernel, workloads, RunCtx::default())?;
        Ok(DseRun {
            arch: point.spec.arch(),
            label: point.label,
            is_paper: point.is_paper,
            kernel,
            cycles: run.cycles,
            verified: run.verification.is_ok(tolerance(kernel)),
        })
    })?;
    Ok((DseReport { runs }, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_and_paper_points() {
        let points = points();
        assert_eq!(
            points.len(),
            VIRAM_LANES.len() * VIRAM_AGS.len()
                + IMAGINE_CLUSTERS.len() * IMAGINE_WPC.len()
                + RAW_MESH.len()
                + PPC_L2_KIB.len()
                + DPU_DPR.len() * DPU_TASKLETS.len()
        );
        // Exactly one paper point per architecture.
        for arch in [Architecture::Viram, Architecture::Imagine, Architecture::Raw] {
            let papers = points.iter().filter(|p| p.spec.arch() == arch && p.is_paper).count();
            assert_eq!(papers, 1, "{arch}");
        }
        assert_eq!(
            points.iter().filter(|p| p.spec.arch() == Architecture::Ppc && p.is_paper).count(),
            1
        );
        assert_eq!(
            points.iter().filter(|p| p.spec.arch() == Architecture::Dpu && p.is_paper).count(),
            1
        );
        // Labels are unique within an architecture.
        for (i, a) in points.iter().enumerate() {
            for b in &points[i + 1..] {
                assert!(
                    a.spec.arch() != b.spec.arch() || a.label != b.label,
                    "duplicate label {}",
                    a.label
                );
            }
        }
    }

    #[test]
    fn small_sweep_verifies_everywhere_and_is_deterministic() {
        let workloads = WorkloadSet::small(42).unwrap();
        let (a, _) = sweep(&workloads, 1).unwrap();
        let (b, stats) = sweep(&workloads, 4).unwrap();
        assert!(a.all_verified(), "{}", a.render());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.render_findings(), b.render_findings());
        assert_eq!(stats.jobs, points().len() * Kernel::ALL.len());
    }

    #[test]
    fn paper_point_matches_the_registry_machines() {
        let workloads = WorkloadSet::small(42).unwrap();
        let (report, _) = sweep(&workloads, 2).unwrap();
        for (arch, label) in [
            (Architecture::Viram, "lanes=8 ags=4"),
            (Architecture::Imagine, "clusters=8 wpc=2"),
            (Architecture::Raw, "mesh=4x4 tiles=16"),
            (Architecture::Ppc, "l2=256K"),
            (Architecture::Dpu, "dpus=128 tasklets=16"),
        ] {
            for kernel in Kernel::ALL {
                let swept = report.cycles(arch, label, kernel).unwrap();
                let mut machine = arch.machine().unwrap();
                let baseline = machine.run(kernel, &workloads).unwrap().cycles;
                assert_eq!(swept, baseline, "{arch}/{label}/{kernel}");
            }
        }
    }

    #[test]
    fn render_lists_every_architecture_section() {
        let workloads = WorkloadSet::small(42).unwrap();
        let (report, _) = sweep(&workloads, 2).unwrap();
        let text = report.render();
        for needle in [
            "VIRAM sensitivity",
            "Imagine sensitivity",
            "Raw sensitivity",
            "PPC sensitivity",
            "DPU sensitivity",
            "*lanes=8 ags=4",
            "*clusters=8 wpc=2",
            "*mesh=4x4",
            "*l2=256K",
            "*dpus=128 tasklets=16",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        assert_eq!(report.findings().len(), 5);
    }
}
