//! Machine-readable experiment results.
//!
//! A regeneration binary's series are one [`ExperimentResult`] document,
//! stored under `results` in the `--bench-out` snapshot next to the
//! headlines, so regression tracking and downstream analysis (plotting)
//! work from the same source of truth as the text tables. The document is
//! built with the in-tree serializer (`osiris::sim::Json`) — no external
//! dependencies — and parses back with the same module.

use osiris::sim::Json;

/// One measured point, optionally paired with the paper's number.
#[derive(Debug, Clone)]
pub struct Point {
    /// Independent variable (message size in bytes, etc.).
    pub x: u64,
    /// Measured value.
    pub measured: f64,
    /// The paper's value at this point, when the paper gives one.
    pub paper: Option<f64>,
}

/// One named series of points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label (e.g. "double-cell DMA").
    pub name: String,
    /// The points, in x order.
    pub points: Vec<Point>,
}

/// A whole experiment: the unit a regeneration binary emits.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Which paper artifact this regenerates ("table1", "fig2", …).
    pub id: String,
    /// Human description.
    pub title: String,
    /// Unit of the measured values ("us", "Mbps").
    pub unit: String,
    /// The series.
    pub series: Vec<Series>,
}

impl ExperimentResult {
    /// A new, empty result document.
    pub fn new(id: &str, title: &str, unit: &str) -> Self {
        ExperimentResult {
            id: id.to_string(),
            title: title.to_string(),
            unit: unit.to_string(),
            series: Vec::new(),
        }
    }

    /// Adds a series from parallel x/measured (and optional paper) arrays.
    pub fn push_series(&mut self, name: &str, xs: &[u64], measured: &[f64], paper: Option<&[f64]>) {
        assert_eq!(xs.len(), measured.len());
        let points = xs
            .iter()
            .zip(measured)
            .enumerate()
            .map(|(i, (&x, &m))| Point {
                x,
                measured: m,
                paper: paper.map(|p| p[i]),
            })
            .collect();
        self.series.push(Series {
            name: name.to_string(),
            points,
        });
    }

    /// The document as a JSON tree. `paper` is omitted where absent,
    /// matching the original wire shape.
    pub fn to_json_value(&self) -> Json {
        let series = self
            .series
            .iter()
            .map(|s| {
                let points = s
                    .points
                    .iter()
                    .map(|p| {
                        let mut obj = Json::obj().with("x", p.x).with("measured", p.measured);
                        if let Some(paper) = p.paper {
                            obj = obj.with("paper", paper);
                        }
                        obj
                    })
                    .collect();
                Json::obj()
                    .with("name", s.name.as_str())
                    .with("points", Json::Arr(points))
            })
            .collect();
        Json::obj()
            .with("id", self.id.as_str())
            .with("title", self.title.as_str())
            .with("unit", self.unit.as_str())
            .with("series", Json::Arr(series))
    }

    /// Reads a document back from the tree [`Self::to_json_value`] builds.
    pub fn from_json_value(v: &Json) -> Result<ExperimentResult, String> {
        let text = |v: &Json, k: &str| v.get(k).and_then(|x| x.as_str()).map(str::to_string);
        let mut series = Vec::new();
        for s in v.get("series").map(|s| s.items()).unwrap_or(&[]) {
            let mut points = Vec::new();
            for p in s.get("points").map(|p| p.items()).unwrap_or(&[]) {
                points.push(Point {
                    x: p.get("x")
                        .and_then(|x| x.as_u64())
                        .ok_or("point without x")?,
                    measured: p
                        .get("measured")
                        .and_then(|m| m.as_f64())
                        .ok_or("point without measured value")?,
                    paper: p.get("paper").and_then(|x| x.as_f64()),
                });
            }
            series.push(Series {
                name: text(s, "name").ok_or("series without name")?,
                points,
            });
        }
        Ok(ExperimentResult {
            id: text(v, "id").ok_or("result without id")?,
            title: text(v, "title").unwrap_or_default(),
            unit: text(v, "unit").unwrap_or_default(),
            series,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let mut r = ExperimentResult::new("fig2", "receive throughput", "Mbps");
        r.push_series(
            "single",
            &[1024, 2048],
            &[72.5, 121.5],
            Some(&[70.0, 120.0]),
        );
        r.push_series("double", &[1024, 2048], &[74.0, 127.7], None);
        let j = r.to_json_value().render_pretty();
        let v = Json::parse(&j).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("fig2"));
        let series = v.get("series").unwrap().items();
        let s0p1 = &series[0].get("points").unwrap().items()[1];
        assert_eq!(s0p1.get("x").unwrap().as_u64(), Some(2048));
        assert_eq!(s0p1.get("paper").unwrap().as_f64(), Some(120.0));
        let s1p0 = &series[1].get("points").unwrap().items()[0];
        assert!(s1p0.get("paper").is_none());
        let back = ExperimentResult::from_json_value(&v).unwrap();
        assert_eq!(back.to_json_value().render_pretty(), j);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let mut r = ExperimentResult::new("x", "y", "z");
        r.push_series("bad", &[1, 2], &[1.0], None);
    }
}
