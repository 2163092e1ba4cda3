//! Shared helpers of the experiment harness: command-line options common to
//! the `table1`…`table5` binaries, per-experiment default scales and a tiny
//! fixed-width table printer.
//!
//! Every binary regenerates one table of the paper:
//!
//! | binary | paper content |
//! |--------|----------------|
//! | `table1` | Figure 1 stem simulation results (Table 1) |
//! | `table2` | learned invalid-state relations per learning mode (Table 2) |
//! | `table3` | sequential learning results across the circuit suite (Table 3) |
//! | `table4` | untestable faults from tie gates vs. the FIRE baseline (Table 4) |
//! | `table5` | ATPG with and without learning, two backtrack limits (Table 5) |
//!
//! Absolute numbers differ from the paper because the circuits are generated
//! substitutes (see the `sla_circuits` crate docs); the shapes — learning
//! cost scaling, who wins and by roughly how much — are what the harness
//! reproduces.

use std::time::Duration;

/// Options shared by the table binaries, parsed from `std::env::args`.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// Circuit scale relative to the original benchmark sizes.
    pub scale: f64,
    /// Run the complete, unscaled sweep (slow).
    pub full: bool,
    /// Upper bound on instantiated gate count; larger circuits are skipped
    /// (reported as `skipped`) unless `--full` is given.
    pub max_gates: usize,
    /// Upper bound on the number of target faults per circuit in ATPG runs.
    pub max_faults: usize,
    /// Backtrack limits exercised by the ATPG harness.
    pub backtrack_limits: Vec<usize>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            scale: 0.04,
            full: false,
            max_gates: 2_500,
            max_faults: 300,
            backtrack_limits: vec![30],
        }
    }
}

impl HarnessOptions {
    /// Parses the common flags: `--scale <f>`, `--full`, `--max-gates <n>`,
    /// `--max-faults <n>`, `--limits <a,b>`. Unknown flags are ignored so the
    /// binaries can add their own.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut opts = HarnessOptions::default();
        let args: Vec<String> = args.into_iter().collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.scale = v;
                        i += 1;
                    }
                }
                "--max-gates" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.max_gates = v;
                        i += 1;
                    }
                }
                "--max-faults" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.max_faults = v;
                        i += 1;
                    }
                }
                "--limits" => {
                    if let Some(v) = args.get(i + 1) {
                        let parsed: Vec<usize> =
                            v.split(',').filter_map(|p| p.trim().parse().ok()).collect();
                        if !parsed.is_empty() {
                            opts.backtrack_limits = parsed;
                        }
                        i += 1;
                    }
                }
                "--full" => {
                    opts.full = true;
                    opts.scale = 1.0;
                    opts.max_gates = usize::MAX;
                    opts.max_faults = usize::MAX;
                    opts.backtrack_limits = vec![30, 1000];
                }
                _ => {}
            }
            i += 1;
        }
        opts
    }
}

/// Formats a duration as fractional seconds, the unit the paper reports.
pub fn seconds(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Prints a row of fixed-width cells.
pub fn print_row(widths: &[usize], cells: &[String]) {
    let line: Vec<String> = widths
        .iter()
        .zip(cells)
        .map(|(w, c)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a header row followed by a separator line.
pub fn print_header(widths: &[usize], cells: &[&str]) {
    print_row(
        widths,
        &cells.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_fast_settings() {
        let o = HarnessOptions::default();
        assert!(o.scale < 1.0);
        assert!(!o.full);
        assert_eq!(o.backtrack_limits, vec![30]);
    }

    #[test]
    fn parses_flags() {
        let o = HarnessOptions::from_args(
            [
                "--scale",
                "0.5",
                "--limits",
                "30,1000",
                "--max-faults",
                "50",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert!((o.scale - 0.5).abs() < 1e-9);
        assert_eq!(o.backtrack_limits, vec![30, 1000]);
        assert_eq!(o.max_faults, 50);
    }

    #[test]
    fn full_flag_unlocks_everything() {
        let o = HarnessOptions::from_args(["--full".to_string()]);
        assert!(o.full);
        assert_eq!(o.scale, 1.0);
        assert_eq!(o.backtrack_limits, vec![30, 1000]);
    }

    #[test]
    fn seconds_formats_two_decimals() {
        assert_eq!(seconds(Duration::from_millis(1500)), "1.50");
    }
}
