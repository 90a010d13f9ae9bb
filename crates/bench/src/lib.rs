//! # bitdew-bench
//!
//! Harness regenerating every table and figure of the BitDew paper's
//! evaluation (§4–§5). One binary per experiment:
//!
//! | Binary   | Reproduces | What it runs |
//! |----------|-----------|--------------|
//! | `table1` | Table 1   | the simulated Grid'5000 testbed inventory |
//! | `table2` | Table 2   | real data-slot creation rates: call tier × engine × pooling |
//! | `table3` | Table 3   | DC vs. DHT-backed DDC publish times, 50 nodes × 500 pairs |
//! | `fig3`   | Fig. 3a–c | FTP vs. BitTorrent distribution + BitDew protocol overhead |
//! | `fig4`   | Fig. 4    | DSL-Lab fault-tolerance Gantt under churn |
//! | `fig5`   | Fig. 5    | MW BLAST total time vs. workers, FTP vs. BitTorrent |
//! | `fig6`   | Fig. 6    | per-cluster transfer/unzip/exec breakdown, 400 nodes |
//! | `ablations` | design choices | MaxDataSchedule, DHT arity, pool size, BT efficiency |
//!
//! Criterion microbenches live in `benches/`. Absolute numbers differ from
//! the paper (different hardware, simulated network); only the shapes of
//! the comparisons are expected to hold.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// The file-size sweep of Fig. 3 (decimal MB, as in the paper).
pub const FIG3_SIZES_MB: [u64; 5] = [10, 50, 100, 250, 500];

/// The node-count sweep of Fig. 3.
pub const FIG3_NODES: [usize; 7] = [10, 20, 50, 100, 150, 200, 250];

/// The worker sweep of Fig. 5.
pub const FIG5_WORKERS: [usize; 8] = [10, 20, 50, 100, 150, 200, 250, 275];

/// Print a section header in the harness output.
pub fn section(title: &str) {
    println!("\n## {title}\n");
}

/// Print a markdown table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", bitdew_util::fmt::table(headers, rows));
}

#[cfg(test)]
mod tests {
    #[test]
    fn sweeps_match_paper() {
        assert_eq!(super::FIG3_SIZES_MB.len(), 5);
        assert_eq!(super::FIG3_NODES[6], 250);
        assert_eq!(super::FIG5_WORKERS[7], 275);
    }
}
