//! Per-layer samples recorded by the traced run, keyed by metric name.

use std::collections::BTreeMap;

/// Samples of each per-layer metric; a metric reports their median.
#[derive(Debug, Default)]
pub struct Layers {
    entries: BTreeMap<String, (&'static str, Vec<f64>)>,
}

impl Layers {
    /// Records one sample of `name`.
    pub fn add(&mut self, name: &str, unit: &'static str, value: f64) {
        self.entries
            .entry(name.to_string())
            .or_insert((unit, Vec::new()))
            .1
            .push(value);
    }

    /// Median of the samples of `name` so far.
    pub fn median(&self, name: &str) -> Option<f64> {
        let (_, samples) = self.entries.get(name)?;
        crate::stats::Summary::of(samples).map(|s| s.median)
    }

    /// `(name, unit, samples)` in name order.
    pub fn into_entries(self) -> impl Iterator<Item = (String, &'static str, Vec<f64>)> {
        self.entries
            .into_iter()
            .map(|(name, (unit, samples))| (name, unit, samples))
    }
}
