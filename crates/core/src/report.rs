//! Paper-style text rendering for experiment results, including
//! renderers over the observability layer's registry [`Snapshot`]s.

use std::fmt::Write as _;

use osiris_sim::{HistSummary, Snapshot, Stage};

/// Renders a table with a header row and aligned columns.
pub fn table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let line: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let _ = writeln!(out, "{line}");
    let hdr: Vec<String> = header
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!(" {h:>width$} ", width = w))
        .collect();
    let _ = writeln!(out, "{}", hdr.join("|"));
    let _ = writeln!(out, "{line}");
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:>width$} ", width = w))
            .collect();
        let _ = writeln!(out, "{}", cells.join("|"));
    }
    let _ = writeln!(out, "{line}");
    out
}

/// Renders a `(x, series...)` sweep as the figures' data, one row per x.
pub fn series(
    title: &str,
    x_label: &str,
    x: &[u64],
    names: &[&str],
    columns: &[Vec<f64>],
) -> String {
    assert_eq!(names.len(), columns.len());
    let mut header = vec![x_label];
    header.extend_from_slice(names);
    let rows: Vec<Vec<String>> = x
        .iter()
        .enumerate()
        .map(|(i, &xv)| {
            let mut row = vec![format!("{xv}")];
            for col in columns {
                row.push(format!("{:.1}", col[i]));
            }
            row
        })
        .collect();
    table(title, &header, &rows)
}

/// Renders series as an ASCII plot in the style of the paper's own
/// figures (one glyph per series, log-spaced x values on the row axis).
pub fn ascii_plot(
    title: &str,
    y_label: &str,
    x: &[u64],
    names: &[&str],
    columns: &[Vec<f64>],
    height: usize,
) -> String {
    assert_eq!(names.len(), columns.len());
    const GLYPHS: [char; 6] = ['3', '+', '2', 'x', '*', 'o'];
    let y_max = columns
        .iter()
        .flat_map(|c| c.iter().copied())
        .fold(1.0f64, f64::max);
    // Round the axis up to a pleasant ceiling.
    let step = (y_max / height as f64).ceil().max(1.0);
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{y_label}");
    for row in (1..=height).rev() {
        let lo = step * (row as f64 - 0.5);
        let hi = step * (row as f64 + 0.5);
        let mut line = format!("{:>6.0} |", step * row as f64);
        for col_idx in 0..x.len() {
            let mut cell = ' ';
            for (s, col) in columns.iter().enumerate() {
                let v = col[col_idx];
                if v >= lo && v < hi {
                    cell = GLYPHS[s % GLYPHS.len()];
                }
            }
            line.push_str(&format!("  {cell}  "));
        }
        let _ = writeln!(out, "{line}");
    }
    let mut axis = String::from("       +");
    let mut labels = String::from("        ");
    for &xv in x {
        axis.push_str("-----");
        labels.push_str(&format!("{:^5}", xv));
    }
    let _ = writeln!(out, "{axis}");
    let _ = writeln!(out, "{labels}");
    for (i, name) in names.iter().enumerate() {
        let _ = writeln!(out, "        {} = {}", GLYPHS[i % GLYPHS.len()], name);
    }
    out
}

/// Renders per-stage latency attribution (µs, as produced by
/// `CriticalPath::stage_percentiles`) plus a closing end-to-end row.
/// Because each PDU's stages sum exactly to its latency, the mean
/// column sums to the mean end-to-end figure — the table explains the
/// whole trip, not a sample of it.
pub fn stage_table(title: &str, stages: &[(Stage, HistSummary)], e2e: &HistSummary) -> String {
    let f = |v: f64| format!("{v:.1}");
    let mut rows: Vec<Vec<String>> = stages
        .iter()
        .map(|(s, h)| {
            vec![
                s.label().to_string(),
                f(h.mean),
                f(h.p50),
                f(h.p95),
                f(h.p99),
            ]
        })
        .collect();
    rows.push(vec![
        "end-to-end".into(),
        f(e2e.mean),
        f(e2e.p50),
        f(e2e.p95),
        f(e2e.p99),
    ]);
    table(
        title,
        &["stage", "mean us", "p50 us", "p95 us", "p99 us"],
        &rows,
    )
}

/// Loud footer for any report whose numbers came off the timeline: a
/// non-zero `*.timeline.dropped` counter means the ring evicted
/// records, so span trees and percentiles above are incomplete. Returns
/// `None` when nothing was lost.
pub fn dropped_spans_warning(snap: &Snapshot) -> Option<String> {
    let lost: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.ends_with(".timeline.dropped"))
        .map(|(_, &v)| v)
        .sum();
    (lost > 0).then(|| {
        format!(
            "WARN: {lost} spans dropped — ring capacity exceeded; \
             latency attribution above is incomplete \
             (raise timeline_capacity)"
        )
    })
}

/// Formats `paper` vs `measured` with the ratio, for EXPERIMENTS.md rows.
pub fn compare(label: &str, paper: f64, measured: f64) -> String {
    let ratio = if paper != 0.0 {
        measured / paper
    } else {
        f64::NAN
    };
    format!("{label:<44} paper {paper:>8.1}   measured {measured:>8.1}   ratio {ratio:>5.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_all_rows() {
        let t = table(
            "Table 1",
            &["size", "ATM", "UDP"],
            &[
                vec!["1".into(), "353".into(), "598".into()],
                vec!["1024".into(), "417".into(), "659".into()],
            ],
        );
        assert!(t.contains("Table 1"));
        assert!(t.contains("353"));
        assert!(t.contains("1024"));
        assert_eq!(t.lines().count(), 7);
    }

    #[test]
    fn series_aligns_columns_with_x() {
        let s = series(
            "Figure 2",
            "KB",
            &[1, 2, 4],
            &["single", "double"],
            &[vec![100.0, 200.0, 300.0], vec![150.0, 250.0, 350.0]],
        );
        assert!(s.contains("single"));
        assert!(s.contains("350.0"));
    }

    #[test]
    fn ascii_plot_places_every_series() {
        let plot = ascii_plot(
            "Fig",
            "Mbps",
            &[1, 2, 4],
            &["a", "b"],
            &[vec![100.0, 200.0, 300.0], vec![50.0, 150.0, 250.0]],
            10,
        );
        assert!(plot.contains("3 = a"));
        assert!(plot.contains("+ = b"));
        // Each series contributes its glyph somewhere in the grid.
        let grid: String = plot.lines().filter(|l| l.contains('|')).collect();
        assert!(grid.matches('3').count() >= 3, "{plot}");
        assert!(grid.matches('+').count() >= 3, "{plot}");
        // The y axis covers the max value.
        assert!(plot.contains("300") || plot.contains("330"), "{plot}");
    }

    #[test]
    fn ascii_plot_handles_single_point() {
        let plot = ascii_plot("t", "y", &[16], &["s"], &[vec![42.0]], 5);
        assert!(plot.contains('3'));
    }

    #[test]
    fn stage_table_has_stage_and_e2e_rows() {
        let h = HistSummary {
            mean: 100.0,
            min: 90.0,
            max: 120.0,
            samples: 4,
            p50: 100.0,
            p95: 118.0,
            p99: 120.0,
        };
        let t = stage_table("anatomy", &[(Stage::DmaTransfer, h), (Stage::Wire, h)], &h);
        assert!(t.contains("DMA transfer"));
        assert!(t.contains("wire"));
        assert!(t.contains("end-to-end"));
        assert!(t.contains("118.0"));
    }

    #[test]
    fn dropped_warning_fires_only_on_loss() {
        let reg = osiris_sim::Registry::new();
        let probe = reg.probe("sim").scoped("timeline");
        let c = probe.counter("dropped");
        assert_eq!(dropped_spans_warning(&reg.snapshot()), None);
        c.add(7);
        let warn = dropped_spans_warning(&reg.snapshot()).expect("must warn");
        assert!(warn.contains("WARN: 7 spans dropped"), "{warn}");
        // Unrelated `.dropped` counters stay out of the tally.
        reg.probe("node0").scoped("board").counter("dropped").add(9);
        let warn = dropped_spans_warning(&reg.snapshot()).unwrap();
        assert!(warn.contains("7 spans"), "{warn}");
    }

    #[test]
    fn compare_shows_ratio() {
        let c = compare("rx throughput", 340.0, 323.0);
        assert!(c.contains("0.95"));
    }

    #[test]
    #[should_panic]
    fn series_length_mismatch_panics() {
        series("x", "x", &[1], &["a", "b"], &[vec![1.0]]);
    }
}
