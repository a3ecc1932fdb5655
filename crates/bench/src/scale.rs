//! Experiment scaling: every bin runs at a laptop-friendly default and at
//! paper scale when `FEXIOT_FULL=1` (or `--full`) is set.

/// How big to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale defaults used in CI and local runs.
    Small,
    /// Paper-scale sizes (Table I counts, 100 clients, ...).
    Full,
}

impl Scale {
    /// Reads the scale from `FEXIOT_FULL` plus an explicit argument slice:
    /// `args` must contain only *boolean flag tokens* (a parser should have
    /// consumed flag values already, so a literal `--full` passed as the
    /// value of another flag is never misread as the scale switch).
    pub fn from_args(args: &[String]) -> Scale {
        let full_env = std::env::var("FEXIOT_FULL")
            .map(|v| v == "1")
            .unwrap_or(false);
        if full_env || args.iter().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Small
        }
    }

    /// [`Scale::from_args`] over the process argv. Convenience for bins
    /// whose only flag is `--full`; binaries with value-taking flags must
    /// parse first and call [`Scale::from_args`] with the leftover boolean
    /// tokens, otherwise `--some-flag --full`'s *value* position would be
    /// scanned too.
    pub fn from_env() -> Scale {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args(&argv)
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

    fn tokens(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn from_args_scans_only_the_given_slice() {
        // The tests in this binary run without FEXIOT_FULL set; from_args
        // then depends only on the slice.
        if std::env::var("FEXIOT_FULL")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            return;
        }
        assert_eq!(Scale::from_args(&tokens(&[])), Scale::Small);
        assert_eq!(Scale::from_args(&tokens(&["--full"])), Scale::Full);
        // A `--full` that was a *value* of another flag never reaches the
        // slice once the caller's parser consumed it.
        assert_eq!(Scale::from_args(&tokens(&["--out-dir", "x"])), Scale::Small);
    }
}
