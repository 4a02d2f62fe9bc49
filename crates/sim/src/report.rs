//! The experiment list: every paper experiment (E1/E2) and ablation
//! (A1–A10) with its id, heading and sweep points.
//!
//! [`EXPERIMENTS`] is the one place that decides which experiments exist
//! and which points each sweeps. `avdb fig6|table1|ablations|faults`
//! print the text of their entries; `avdb report` runs every entry and
//! writes its JSON as `<id>.json`, so EXPERIMENTS.md numbers can be diffed
//! mechanically between revisions instead of eyeballed.

use crate::experiments::{
    ablations, circulation, freshness, mix, run_allocation_sweep, run_circulation,
    run_decide_sweep, run_fault_experiment, run_fig6, run_freshness, run_magnitude_sweep,
    run_mix, run_scaling, run_scaling_balanced, run_select_sweep, run_skew_sweep, run_table1,
    scaling, AblationRow,
};
use avdb_types::{AvdbError, Result, SiteId};
use serde::Serialize;
use serde_json::JsonValue;
use std::fs;
use std::path::Path;

/// Scale knobs shared by every experiment.
#[derive(Clone, Copy, Debug)]
pub struct ReportScale {
    /// Updates for E1/E2.
    pub paper_updates: usize,
    /// Updates for each ablation sweep.
    pub ablation_updates: usize,
    /// Seed shared by every experiment.
    pub seed: u64,
}

impl Default for ReportScale {
    fn default() -> Self {
        ReportScale { paper_updates: 10_000, ablation_updates: 3_000, seed: 1 }
    }
}

/// What one experiment run yields.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Aligned text tables, as `avdb` prints them.
    pub text: String,
    /// The typed result lowered to JSON, as `avdb report` writes it.
    pub json: JsonValue,
}

impl Artifact {
    fn new<T: Serialize>(result: &T, text: String) -> Self {
        Artifact { text, json: result.to_value() }
    }

    fn ablation(rows: Vec<AblationRow>) -> Self {
        Artifact::new(&rows, ablations::render_rows(&rows))
    }
}

/// One experiment of the evaluation.
pub struct Experiment {
    /// Stable id (`e1_fig6` … `a10_freshness`); the JSON file name stem.
    pub id: &'static str,
    /// One-line description printed above the text.
    pub heading: &'static str,
    /// The `avdb` subcommand that prints this experiment.
    pub command: &'static str,
    /// Runs the experiment at the given scale.
    pub run: fn(&ReportScale) -> Artifact,
}

/// Every experiment, in id order. Sweep points live here and nowhere
/// else.
pub static EXPERIMENTS: [Experiment; 12] = [
    Experiment {
        id: "e1_fig6",
        heading: "E1 Fig. 6: number of updates vs number of correspondences",
        command: "fig6",
        run: |s| {
            let r = run_fig6(s.paper_updates, s.seed);
            Artifact::new(&r, r.render())
        },
    },
    Experiment {
        id: "e2_table1",
        heading: "E2 Table 1: per-site correspondences at five checkpoints",
        command: "table1",
        run: |s| {
            let step = (s.paper_updates / 5).max(1) as u64;
            let checkpoints: Vec<u64> = (1..=5).map(|i| i * step).collect();
            let r = run_table1(&checkpoints, s.seed);
            let text = format!(
                "{}\nretailer unfairness: {:.1}% (paper: \"almost same\")",
                r.render(),
                r.retailer_unfairness() * 100.0
            );
            Artifact::new(&r, text)
        },
    },
    Experiment {
        id: "a1_decide",
        heading: "A1 deciding function (how much AV moves per grant)",
        command: "ablations",
        run: |s| Artifact::ablation(run_decide_sweep(s.ablation_updates, s.seed)),
    },
    Experiment {
        id: "a2_select",
        heading: "A2 selecting function (whom to ask for AV)",
        command: "ablations",
        run: |s| Artifact::ablation(run_select_sweep(s.ablation_updates, s.seed)),
    },
    Experiment {
        id: "a3_scaling",
        heading: "A3 site-count scaling: paper rates, then balanced minting",
        command: "ablations",
        run: |s| {
            const SITES: [usize; 5] = [3, 5, 9, 17, 33];
            let paper = run_scaling(&SITES, s.ablation_updates, s.seed);
            let balanced = run_scaling_balanced(&SITES, s.ablation_updates, s.seed);
            let text = format!(
                "paper per-site rates (imbalanced at large n):\n{}\n\
                 maker minting balanced to aggregate drain:\n{}",
                scaling::render_rows(&paper),
                scaling::render_rows(&balanced)
            );
            Artifact::new(&(paper, balanced), text)
        },
    },
    Experiment {
        id: "a4_mix",
        heading: "A4 Delay/Immediate product mix (crossover hunt)",
        command: "ablations",
        run: |s| {
            let rows = run_mix(&[0.0, 0.1, 0.25, 0.5, 0.75, 1.0], s.ablation_updates, s.seed);
            Artifact::new(&rows, mix::render_rows(&rows))
        },
    },
    Experiment {
        id: "a5_faults",
        heading: "A5 fault tolerance: crash a retailer, then the maker",
        command: "faults",
        run: |s| {
            let crashes = (
                run_fault_experiment(SiteId(2), s.ablation_updates, s.seed),
                run_fault_experiment(SiteId(0), s.ablation_updates, s.seed),
            );
            let text = format!(
                "crash window: middle third of a {}-update paper workload\n\n{}\n{}",
                s.ablation_updates,
                crashes.0.render(),
                crashes.1.render()
            );
            Artifact::new(&crashes, text)
        },
    },
    Experiment {
        id: "a6_allocation",
        heading: "A6 initial AV allocation",
        command: "ablations",
        run: |s| Artifact::ablation(run_allocation_sweep(s.ablation_updates, s.seed)),
    },
    Experiment {
        id: "a7_skew",
        heading: "A7 product-popularity skew",
        command: "ablations",
        run: |s| Artifact::ablation(run_skew_sweep(s.ablation_updates, s.seed)),
    },
    Experiment {
        id: "a8_magnitude",
        heading: "A8 retailer decrement magnitude",
        command: "ablations",
        run: |s| Artifact::ablation(run_magnitude_sweep(s.ablation_updates, s.seed)),
    },
    Experiment {
        id: "a9_circulation",
        heading: "A9 proactive AV circulation (pull-only vs pull+push)",
        command: "ablations",
        run: |s| {
            let rows = run_circulation(s.ablation_updates, s.seed);
            Artifact::new(&rows, circulation::render_rows(&rows))
        },
    },
    Experiment {
        id: "a10_freshness",
        heading: "A10 propagation batching (traffic vs replica freshness)",
        command: "ablations",
        run: |s| {
            let rows = run_freshness(&[1, 5, 25, 100, 400], s.ablation_updates, s.seed);
            Artifact::new(&rows, freshness::render_rows(&rows))
        },
    },
];

/// Runs every experiment at the given scale and writes `<id>.json` for
/// each into `dir` (created if needed). Returns the ids written.
pub fn generate_report(dir: &Path, scale: ReportScale) -> Result<Vec<&'static str>> {
    fs::create_dir_all(dir).map_err(|e| AvdbError::Corruption(format!("create dir: {e}")))?;
    let mut written = Vec::new();
    for experiment in &EXPERIMENTS {
        let json = serde_json::to_string_pretty(&(experiment.run)(&scale).json)
            .map_err(|e| AvdbError::Codec(e.to_string()))?;
        let name = format!("{}.json", experiment.id);
        fs::write(dir.join(&name), json)
            .map_err(|e| AvdbError::Corruption(format!("write {name}: {e}")))?;
        written.push(experiment.id);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const SMALL: ReportScale = ReportScale { paper_updates: 250, ablation_updates: 150, seed: 1 };

    #[test]
    fn every_experiment_yields_text_and_json_under_a_unique_id() {
        let mut ids = BTreeSet::new();
        for experiment in &EXPERIMENTS {
            assert!(ids.insert(experiment.id), "duplicate id {}", experiment.id);
            let artifact = (experiment.run)(&SMALL);
            assert!(!artifact.text.trim().is_empty(), "{} has no text", experiment.id);
            let json = serde_json::to_string(&artifact.json).unwrap();
            assert!(json.starts_with(['{', '[']), "{} is not a JSON document", experiment.id);
            assert!(json.len() > 50, "{} JSON is trivial", experiment.id);
        }
    }

    #[test]
    fn report_writes_one_file_per_experiment() {
        let dir = std::env::temp_dir().join(format!("avdb-report-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let written = generate_report(&dir, SMALL).unwrap();
        assert_eq!(written, EXPERIMENTS.iter().map(|e| e.id).collect::<Vec<_>>());
        // Spot check: the Fig. 6 artifact carries both series.
        let fig6 = fs::read_to_string(dir.join("e1_fig6.json")).unwrap();
        assert!(fig6.contains("\"proposal\""));
        assert!(fig6.contains("\"conventional\""));
        fs::remove_dir_all(&dir).unwrap();
    }
}
