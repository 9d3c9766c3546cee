//! The benchmark's declaration, `BENCHMARK.json` at the repository root,
//! compiled in: metric names, units, directions and regression bounds.

use crate::json::{self, Json};

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the old median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<Declared>, String> {
            doc.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
                    Ok(Declared {
                        name: field("name").ok_or("metric without a name")?,
                        unit: field("unit").ok_or("metric without a unit")?,
                        lower_is_better: field("better").as_deref() == Some("lower"),
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no run_seconds")?,
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The declaration of `name`, end-to-end or per-layer.
    pub fn find(&self, name: &str) -> Option<&Declared> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_parses_and_names_every_workload() {
        let spec = Spec::load();
        assert_eq!(
            spec.workloads,
            ["slab_128", "slab_64_fine", "tune_cells", "service_overload"]
        );
        assert!(spec.end_to_end.iter().all(|d| d.bound.is_some()));
        let setup = spec.find("setup_s").expect("setup_s is declared");
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        assert!(spec.per_layer.iter().all(|d| d.bound.is_none()));
    }
}
