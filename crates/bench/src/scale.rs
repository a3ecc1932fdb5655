//! Experiment scaling: every bin runs at a laptop-friendly default and at
//! paper scale when `FEXIOT_FULL=1` (or `--full`) is set.

use fexiot_obs::cli::{parse_env, Flag, Kind, Spec};

/// How big to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale defaults used in CI and local runs.
    Small,
    /// Paper-scale sizes (Table I counts, 100 clients, ...).
    Full,
}

impl Scale {
    /// Reads the scale from `FEXIOT_FULL=1` or the `--full` switch, the one
    /// flag an experiment bin takes; any other argument exits 2 with the
    /// usage line.
    pub fn from_env() -> Scale {
        const FULL: Spec = Spec::new("", &[&[Flag::new("full", Kind::Switch, "")]]);
        let args = parse_env(&FULL);
        if args.has("full") || std::env::var("FEXIOT_FULL").is_ok_and(|v| v == "1") {
            Scale::Full
        } else {
            Scale::Small
        }
    }

    /// Lowercase label used in machine-readable exports.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }

    pub fn pick<T>(self, small: T, full: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Full => full,
        }
    }
}

/// Renders a markdown-ish table to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("| {} |", joined.join(" | "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Small.pick(1, 100), 1);
        assert_eq!(Scale::Full.pick(1, 100), 100);
    }
}
