//! `BENCHMARK.json`, compiled in: the one place workload and metric names,
//! units, directions and bounds are declared. The binary prints exactly
//! these names, so the file and the program cannot drift apart unnoticed.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen; only
    /// end-to-end metrics have one.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        Spec::parse(BENCHMARK_JSON)
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Json::parse(text)?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: missing list `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let text = |field: &str| {
                        m.get(field)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| {
                                format!("BENCHMARK.json: `{key}` entry without `{field}`")
                            })
                    };
                    Ok(Metric {
                        name: text("name")?,
                        unit: text("unit")?,
                        lower_is_better: text("better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing `run_seconds`")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or("BENCHMARK.json: workload without `name`".to_string())
                })
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics one run prints: end-to-end untraced, per-layer traced.
    pub fn metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
