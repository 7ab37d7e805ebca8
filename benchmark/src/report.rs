//! Sample statistics, the metric list the benchmark prints, and the
//! per-layer ledger.

/// Nearest-rank percentile `p` (0..=100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A named value with its unit and the number of samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric { name, value, unit, samples });
    }

    pub fn print(&self, title: &str) {
        println!("\n{title}");
        println!("  {:<36} {:>16} {:<6} {:>9}", "metric", "value", "unit", "samples");
        for m in &self.0 {
            println!("  {:<36} {:>16.4} {:<6} {:>9}", m.name, m.value, m.unit, m.samples);
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of
    /// each value. A value that is not finite becomes `null`.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|m| m.value.is_finite())
    }
}

/// One stage of the ledger: rows that should add up to the stage's
/// wall time, measured from outside. The remainder is its own row.
pub struct Stage {
    pub name: String,
    pub wall_ms: f64,
    pub rows: Vec<(&'static str, f64, &'static str)>,
}

impl Stage {
    pub fn new(name: impl Into<String>, wall_ms: f64) -> Stage {
        Stage { name: name.into(), wall_ms, rows: Vec::new() }
    }

    /// Adds a row; `source` names where the number comes from.
    pub fn row(mut self, layer: &'static str, ms: f64, source: &'static str) -> Stage {
        self.rows.push((layer, ms, source));
        self
    }

    pub fn print(&self) {
        println!("  {} — wall {:.3} ms", self.name, self.wall_ms);
        let mut sum = 0.0;
        for &(layer, ms, source) in &self.rows {
            sum += ms;
            self.line(layer, ms, source);
        }
        self.line("unattributed", self.wall_ms - sum, "wall minus rows");
    }

    fn line(&self, layer: &str, ms: f64, source: &str) {
        let share = if self.wall_ms > 0.0 { 100.0 * ms / self.wall_ms } else { 0.0 };
        println!("    {layer:<28} {ms:>12.3} ms {share:>6.1}%   {source}");
    }
}
