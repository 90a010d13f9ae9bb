//! Human-readable formatting helpers for the experiment harnesses.
//!
//! The paper quotes file sizes in MB (decimal, as networking papers do) and
//! durations in seconds; these helpers keep the harness output in the same
//! units so printed tables line up with the paper's.

/// Bytes per decimal megabyte, the unit used throughout the paper.
pub const MB: u64 = 1_000_000;
/// Bytes per decimal gigabyte.
pub const GB: u64 = 1_000_000_000;
/// Bytes per kibibyte (used for bandwidth reports in Fig. 4, "KB/s").
pub const KB: u64 = 1_000;

/// Format a byte count with the paper's decimal units (e.g. `500 MB`, `2.68 GB`).
pub fn bytes(b: u64) -> String {
    if b >= GB {
        let v = b as f64 / GB as f64;
        if (v - v.round()).abs() < 1e-9 {
            format!("{} GB", v.round() as u64)
        } else {
            format!("{v:.2} GB")
        }
    } else if b >= MB {
        let v = b as f64 / MB as f64;
        if (v - v.round()).abs() < 1e-9 {
            format!("{} MB", v.round() as u64)
        } else {
            format!("{v:.2} MB")
        }
    } else if b >= KB {
        format!("{:.1} KB", b as f64 / KB as f64)
    } else {
        format!("{b} B")
    }
}

/// Format a duration given in seconds (e.g. `3.2 s`, `1m40s`, `2h05m`).
pub fn seconds(s: f64) -> String {
    if s < 0.0 {
        return format!("-{}", seconds(-s));
    }
    if s < 60.0 {
        format!("{s:.2} s")
    } else if s < 3600.0 {
        let m = (s / 60.0).floor() as u64;
        format!("{m}m{:02.0}s", s - m as f64 * 60.0)
    } else {
        let h = (s / 3600.0).floor() as u64;
        let m = ((s - h as f64 * 3600.0) / 60.0).floor() as u64;
        format!("{h}h{m:02}m")
    }
}

/// Format a rate in bytes/second the way Fig. 4 annotates node bandwidth
/// (e.g. `492 KB/s`).
pub fn rate(bytes_per_sec: f64) -> String {
    if bytes_per_sec >= GB as f64 {
        format!("{:.2} GB/s", bytes_per_sec / GB as f64)
    } else if bytes_per_sec >= MB as f64 {
        format!("{:.1} MB/s", bytes_per_sec / MB as f64)
    } else if bytes_per_sec >= KB as f64 {
        format!("{:.0} KB/s", bytes_per_sec / KB as f64)
    } else {
        format!("{bytes_per_sec:.0} B/s")
    }
}

/// Render a markdown-style table; used by every bench binary so table output
/// pastes straight into markdown.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(c.len());
            line.push_str(&format!(" {c:<w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<1$}|", "", w + 2));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_units() {
        assert_eq!(bytes(10), "10 B");
        assert_eq!(bytes(1_500), "1.5 KB");
        assert_eq!(bytes(10 * MB), "10 MB");
        assert_eq!(bytes(500 * MB), "500 MB");
        assert_eq!(bytes(2_680 * MB), "2.68 GB");
        assert_eq!(bytes(GB), "1 GB");
    }

    #[test]
    fn seconds_units() {
        assert_eq!(seconds(3.25), "3.25 s");
        assert_eq!(seconds(100.0), "1m40s");
        assert_eq!(seconds(7500.0), "2h05m");
        assert_eq!(seconds(-2.0), "-2.00 s");
    }

    #[test]
    fn rate_units() {
        assert_eq!(rate(492.0 * KB as f64), "492 KB/s");
        assert_eq!(rate(1.5 * MB as f64), "1.5 MB/s");
        assert_eq!(rate(12.0), "12 B/s");
    }

    #[test]
    fn table_alignment() {
        let t = table(
            &["col", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-row".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows render to equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[2].contains("a"));
        assert!(lines[3].contains("long-row"));
    }
}
