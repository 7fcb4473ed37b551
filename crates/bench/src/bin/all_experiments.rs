//! Runs every experiment binary in sequence, forwarding `--quick` /
//! `--limit` flags. Convenience wrapper for regenerating EXPERIMENTS.md.
//!
//! Usage: `all_experiments [--quick] [--limit <seconds>]`.

use std::process::Command;

const BINARIES: &[&str] = &[
    "gamma_table",
    "tree_size",
    "ub_tightness",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "fig7",
    "fig8",
    "rule_stats",
];

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let forwarded: Vec<String> = std::env::args().skip(1).collect();

    for bin in BINARIES {
        // Table 3 needs a longer limit than the solved-count experiments so
        // that KDBB finishes on some instances (for the speedup statistic);
        // it keeps its own default unless the caller passed only --quick.
        let args: Vec<String> = if *bin == "table3" {
            forwarded
                .iter()
                .filter(|a| *a == "--quick")
                .cloned()
                .collect()
        } else {
            forwarded.clone()
        };
        println!("\n=============================================================");
        println!("== {bin} {}", args.join(" "));
        println!("=============================================================\n");
        let status = Command::new(dir.join(bin))
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} failed with {status}");
    }
    println!("\nAll experiments completed.");
}
