//! HAWatcher-style baseline (Fu et al., USENIX Security 2021): mines binary
//! correlation templates ("event A is followed by event B") from normal
//! event logs and flags runtime violations (paper Table II).
//!
//! As the paper notes, HAWatcher "only extracts binary rule templates, which
//! can hardly cover long-term complex correlations" — this implementation
//! deliberately preserves that limitation.

use std::collections::{HashMap, HashSet};

/// HAWatcher hyperparameters.
#[derive(Debug, Clone)]
pub struct HaWatcherConfig {
    /// Events after an occurrence of A in which B must appear.
    pub window: usize,
    /// Minimum occurrences of A for a template to be considered.
    pub min_support: usize,
    /// Minimum P(B within window | A) to accept the template.
    pub min_confidence: f64,
    /// A sequence is anomalous if more than this fraction of template checks
    /// fail (or unseen events appear beyond this fraction).
    pub violation_fraction: f64,
}

impl Default for HaWatcherConfig {
    fn default() -> Self {
        Self {
            window: 4,
            min_support: 3,
            min_confidence: 0.8,
            violation_fraction: 0.25,
        }
    }
}

/// Mined correlation templates plus the normal event vocabulary.
pub struct HaWatcher {
    /// Templates `a -> must see b within window`.
    templates: Vec<(String, String)>,
    vocabulary: HashSet<String>,
    config: HaWatcherConfig,
}

impl HaWatcher {
    /// Mines templates from normal event-template sequences.
    pub fn fit(normal_sequences: &[Vec<String>], config: HaWatcherConfig) -> Self {
        let mut vocabulary = HashSet::new();
        let mut support: HashMap<String, usize> = HashMap::new();
        let mut follows: HashMap<(String, String), usize> = HashMap::new();

        for seq in normal_sequences {
            for (i, a) in seq.iter().enumerate() {
                vocabulary.insert(a.clone());
                *support.entry(a.clone()).or_insert(0) += 1;
                let window_end = (i + 1 + config.window).min(seq.len());
                let mut seen: HashSet<&String> = HashSet::new();
                for b in &seq[i + 1..window_end] {
                    if b != a && seen.insert(b) {
                        *follows.entry((a.clone(), b.clone())).or_insert(0) += 1;
                    }
                }
            }
        }

        let mut templates = Vec::new();
        for ((a, b), &n_follow) in &follows {
            let n_a = support.get(a).copied().unwrap_or(0);
            if n_a >= config.min_support && n_follow as f64 / n_a as f64 >= config.min_confidence {
                templates.push((a.clone(), b.clone()));
            }
        }
        templates.sort();
        Self {
            templates,
            vocabulary,
            config,
        }
    }

    /// Fraction of failed checks over a test sequence: template violations
    /// plus out-of-vocabulary events.
    pub fn violation_rate(&self, seq: &[String]) -> f64 {
        if seq.is_empty() {
            return 0.0;
        }
        let mut checks = 0usize;
        let mut violations = 0usize;
        // Out-of-vocabulary events.
        for e in seq {
            checks += 1;
            if !self.vocabulary.contains(e) {
                violations += 1;
            }
        }
        // Template checks.
        for (i, e) in seq.iter().enumerate() {
            for (a, b) in &self.templates {
                if e == a {
                    checks += 1;
                    let window_end = (i + 1 + self.config.window).min(seq.len());
                    if !seq[i + 1..window_end].contains(b) {
                        violations += 1;
                    }
                }
            }
        }
        violations as f64 / checks.max(1) as f64
    }

    /// Flags a sequence as anomalous (1) or normal (0).
    pub fn predict(&self, seq: &[String]) -> usize {
        usize::from(self.violation_rate(seq) > self.config.violation_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(items: &[&str]) -> Vec<String> {
        items.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn mines_consistent_followers() {
        // "motion on" is always followed by "light on".
        let normal = vec![
            s(&["motion on", "light on", "motion off", "light off"]),
            s(&[
                "motion on",
                "light on",
                "door open",
                "motion off",
                "light off",
            ]),
            s(&["motion on", "light on", "motion off", "light off"]),
        ];
        let hw = HaWatcher::fit(&normal, HaWatcherConfig::default());
        assert!(hw
            .templates
            .iter()
            .any(|(a, b)| a == "motion on" && b == "light on"));
    }

    #[test]
    fn violation_detected_when_follower_missing() {
        let normal = vec![
            s(&["motion on", "light on", "motion off", "light off"]),
            s(&["motion on", "light on", "motion off", "light off"]),
        ];
        let hw = HaWatcher::fit(&normal, HaWatcherConfig::default());
        // Light never turns on after motion: attack suppressed the command.
        let attacked = s(&[
            "motion on",
            "door open",
            "motion off",
            "motion on",
            "door open",
        ]);
        assert_eq!(
            hw.predict(&attacked),
            1,
            "rate {}",
            hw.violation_rate(&attacked)
        );
        let clean = s(&["motion on", "light on", "motion off", "light off"]);
        assert_eq!(hw.predict(&clean), 0, "rate {}", hw.violation_rate(&clean));
    }

    #[test]
    fn unseen_events_raise_violations() {
        let normal = vec![s(&["a", "b", "a", "b", "a", "b"])];
        let hw = HaWatcher::fit(&normal, HaWatcherConfig::default());
        let weird = s(&["x", "y", "z"]);
        assert!(hw.violation_rate(&weird) > 0.9);
    }

    #[test]
    fn empty_sequence_is_normal() {
        let normal = vec![s(&["a", "b"])];
        let hw = HaWatcher::fit(&normal, HaWatcherConfig::default());
        assert_eq!(hw.predict(&[]), 0);
    }

    #[test]
    fn low_confidence_pairs_not_mined() {
        // "a" is followed by "b" only half the time.
        let normal = vec![s(&["a", "b", "a", "c", "a", "b", "a", "c"])];
        let hw = HaWatcher::fit(&normal, HaWatcherConfig::default());
        assert!(!hw.templates.iter().any(|(x, y)| x == "a" && y == "b"));
    }
}
