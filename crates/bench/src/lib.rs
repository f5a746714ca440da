//! # tcp-bench — the experiment tables of the paper and its extensions
//!
//! One job: print experiment tables (TSV, `#` banner first) to stdout and
//! assert their invariants as they go. Nothing is written to disk unless a
//! serving row is given `--trace <path>` (a Perfetto export). Whether a
//! change made the code faster is not decided here: numbers that are
//! compared over time live in `benchmark/` (`BENCHMARK.json`), which
//! measures with repeated interleaved rounds and compares against the
//! measured spread.
//!
//! | Binary | Runs |
//! |--------|------|
//! | `tcp` | every paper figure, theorem check and ablation, and the serving sweeps (`serve`, `serve_load`, `serve_skew`) — one row of [`experiments::EXPERIMENTS`] each, `tcp <name> [--quick]` (`tcp list` / `tcp help` name them) — plus the `sim` / `synthetic` / `game` drivers |
//!
//! `--quick` shrinks trial counts by 10× (or the horizon) for
//! smoke-testing; each row names the flags it takes, and a flag it does
//! not accept exits 2 naming it. The three serving rows share one cell
//! runner, [`cell`].

pub mod cell;
pub mod cli;
pub mod experiments;
pub mod perfetto;
pub mod report;

/// Shared output helpers for the tables.
pub mod table {
    /// Print a TSV header line.
    pub fn header(cols: &[&str]) {
        println!("{}", cols.join("\t"));
    }

    /// Print one TSV row of formatted cells.
    pub fn row(cells: &[String]) {
        println!("{}", cells.join("\t"));
    }

    /// Format a float with 4 significant-ish digits for table cells.
    pub fn num(x: f64) -> String {
        if x == 0.0 {
            "0".to_string()
        } else if x.abs() >= 1e6 || x.abs() < 1e-3 {
            format!("{x:.3e}")
        } else {
            format!("{x:.4}")
        }
    }

    /// Scale a trial count down in quick mode (smoke tests: 10× fewer,
    /// never below 100).
    pub fn scaled(n: usize, quick: bool) -> usize {
        if quick {
            (n / 10).max(100)
        } else {
            n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::experiments::EXPERIMENTS;
    use super::table;

    #[test]
    fn num_formats_reasonably() {
        assert_eq!(table::num(0.0), "0");
        assert_eq!(table::num(2.0), "2.0000");
        assert!(table::num(1.5e7).contains('e'));
    }

    /// `src/bin` holds `tcp.rs` alone and the crate-doc table above names
    /// it alone; the experiment table names each entry once, says what it
    /// reproduces, and shadows none of `tcp`'s own commands.
    #[test]
    fn experiment_index_lists_every_bin_once() {
        let bin_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let bins: Vec<String> = std::fs::read_dir(bin_dir)
            .expect("src/bin is readable")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .map(|p| p.file_stem().unwrap().to_str().unwrap().to_string())
            .collect();
        let indexed: Vec<String> = include_str!("lib.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! | `"))
            .map(|l| l.split('`').next().unwrap().to_string())
            .collect();
        assert_eq!(bins, ["tcp"], "src/bin");
        assert_eq!(indexed, ["tcp"], "crate-doc table");

        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "an experiment name repeats");
        for e in EXPERIMENTS {
            assert!(!e.reproduces.is_empty(), "{}", e.name);
            assert!(
                !["sim", "synthetic", "game", "list", "help"].contains(&e.name),
                "{} is a tcp command",
                e.name
            );
        }
    }

    #[test]
    fn scaled_has_floor() {
        assert_eq!(table::scaled(5000, false), 5000);
        assert_eq!(table::scaled(5000, true), 500);
        assert_eq!(table::scaled(500, true), 100);
    }
}
