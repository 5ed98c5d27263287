//! Correctness checks. Each returns `Err` with a reason; a failed check
//! fails the operation it checks, so it counts in `failed` and the run exits
//! non-zero.

use dc_floc::{cluster_residue, FlocResult, PredictError, ResidueMean};
use dc_matrix::DataMatrix;
use dc_serve::ServeModel;

/// Every reported residue must match `dc_floc::cluster_residue`, an
/// implementation independent of the mining loop's incremental statistics,
/// and the reported average must be their mean.
pub fn check_residues(matrix: &DataMatrix, result: &FlocResult) -> Result<(), String> {
    if result.clusters.len() != result.residues.len() {
        return Err(format!(
            "{} clusters but {} residues",
            result.clusters.len(),
            result.residues.len()
        ));
    }
    for (c, (cluster, &reported)) in result.clusters.iter().zip(&result.residues).enumerate() {
        let recomputed = cluster_residue(matrix, cluster, ResidueMean::Arithmetic);
        if !close(recomputed, reported) {
            return Err(format!(
                "cluster {c}: reported residue {reported} but recomputed {recomputed}"
            ));
        }
    }
    let mean = result.residues.iter().sum::<f64>() / result.residues.len().max(1) as f64;
    if !close(mean, result.avg_residue) {
        return Err(format!(
            "reported average residue {} but the residues average {mean}",
            result.avg_residue
        ));
    }
    Ok(())
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Two runs that must agree bit for bit: the same clusters, residues and
/// average.
pub fn check_identical(what: &str, a: &FlocResult, b: &FlocResult) -> Result<(), String> {
    let bits = |r: &FlocResult| r.residues.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if a.clusters != b.clusters
        || bits(a) != bits(b)
        || a.avg_residue.to_bits() != b.avg_residue.to_bits()
    {
        return Err(format!(
            "{what}: results differ (avg residue {} vs {})",
            a.avg_residue, b.avg_residue
        ));
    }
    Ok(())
}

/// One request body and the answer every response to it must carry.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The `POST /v1/predict` body.
    pub body: String,
    /// The queried cells, in order.
    pub cells: Vec<(usize, usize)>,
    /// The in-process model's answer for each cell.
    pub answers: Vec<Result<f64, PredictError>>,
    /// The response body the server renders for `answers`.
    pub expected: Vec<u8>,
}

impl Exchange {
    /// Builds the request for `cells` and its expected answer from `model`.
    pub fn new(model: &ServeModel, cells: Vec<(usize, usize)>) -> Exchange {
        let pairs: Vec<String> = cells.iter().map(|(r, c)| format!("[{r},{c}]")).collect();
        let body = format!("{{\"queries\": [{}]}}", pairs.join(","));
        let answers: Vec<_> = cells.iter().map(|&(r, c)| model.predict(r, c)).collect();
        let items: Vec<String> = cells
            .iter()
            .zip(&answers)
            .map(|(&(r, c), a)| {
                let prediction = match a {
                    Ok(v) if v.is_finite() => format!("{v}"),
                    _ => "null".to_string(),
                };
                format!(
                    "{{\"row\": {r}, \"col\": {c}, \"outcome\": \"{}\", \"prediction\": {prediction}}}",
                    outcome(a)
                )
            })
            .collect();
        let expected = format!("{{\"results\": [{}]}}\n", items.join(", ")).into_bytes();
        Exchange {
            body,
            cells,
            answers,
            expected,
        }
    }

    /// Checks one response and returns the predictions it carries. The
    /// byte comparison is the fast path; a body rendered differently is
    /// parsed and compared answer by answer.
    pub fn verify(&self, status: u16, body: &[u8]) -> Result<u64, String> {
        if status != 200 {
            return Err(format!("status {status}"));
        }
        if body == self.expected.as_slice() {
            return Ok(self.cells.len() as u64);
        }
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let value = serde_json::parse_value(text).map_err(|e| format!("bad JSON: {e}"))?;
        let results = value
            .as_object()
            .and_then(|f| f.iter().find(|(k, _)| k == "results"))
            .and_then(|(_, v)| v.as_array())
            .ok_or("no `results` array")?;
        if results.len() != self.cells.len() {
            return Err(format!(
                "{} results for {} queries",
                results.len(),
                self.cells.len()
            ));
        }
        for (i, item) in results.iter().enumerate() {
            let field = |name: &str| {
                item.as_object()
                    .and_then(|f| f.iter().find(|(k, _)| k == name))
                    .map(|(_, v)| v)
            };
            let (r, c) = self.cells[i];
            let want = &self.answers[i];
            let row = field("row").and_then(|v| v.as_u64());
            let col = field("col").and_then(|v| v.as_u64());
            let out = field("outcome").and_then(|v| v.as_str());
            let got = field("prediction").and_then(|v| v.as_f64());
            let want_value = want.as_ref().ok().copied().filter(|v| v.is_finite());
            if row != Some(r as u64)
                || col != Some(c as u64)
                || out != Some(outcome(want))
                || got.map(f64::to_bits) != want_value.map(f64::to_bits)
            {
                return Err(format!(
                    "query #{i} ({r},{c}): got {out:?}/{got:?}, want {}/{want_value:?}",
                    outcome(want)
                ));
            }
        }
        Ok(results.len() as u64)
    }
}

fn outcome(answer: &Result<f64, PredictError>) -> &'static str {
    match answer {
        Ok(_) => "hit",
        Err(PredictError::NotCovered) => "miss",
        Err(PredictError::DegenerateCluster) => "degenerate",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_floc::{floc, FlocConfig, Seeding};

    fn planted() -> dc_datagen::EmbeddedData {
        let cfg = dc_datagen::EmbedConfig::new(60, 12, vec![(12, 4); 2]).with_seed(5);
        dc_datagen::embed::generate(&cfg)
    }

    fn mined(matrix: &DataMatrix) -> FlocResult {
        let cfg = FlocConfig::builder(2)
            .seed(3)
            .max_iterations(2)
            .seeding(Seeding::TargetSize { rows: 10, cols: 4 })
            .build();
        floc(matrix, &cfg).unwrap()
    }

    #[test]
    fn a_true_result_passes() {
        let data = planted();
        let result = mined(&data.matrix);
        check_residues(&data.matrix, &result).unwrap();
        check_identical("rerun", &result, &mined(&data.matrix)).unwrap();
    }

    #[test]
    fn a_mutated_cluster_is_rejected() {
        let data = planted();
        let result = mined(&data.matrix);
        let mut mutated = result.clone();
        // Toggle one row of cluster 0 so its membership no longer matches
        // the residue reported for it.
        let cluster = &mut mutated.clusters[0];
        let row = (0..60).find(|&r| !cluster.rows.contains(r)).unwrap();
        cluster.rows.insert(row);
        assert!(check_residues(&data.matrix, &mutated).is_err());
        assert!(check_identical("mutated", &result, &mutated).is_err());

        let mut off = result.clone();
        off.residues[1] += 1e-3;
        assert!(check_residues(&data.matrix, &off).is_err());
        let mut avg = result.clone();
        avg.avg_residue = f64::from_bits(avg.avg_residue.to_bits() + 1);
        assert!(check_identical("avg", &result, &avg).is_err());
    }

    fn exchange() -> Exchange {
        let data = planted();
        let model = ServeModel::new(data.matrix, data.truth, vec![0.0; 2], 0.0).unwrap();
        let cells: Vec<_> = (0..60).flat_map(|r| (0..12).map(move |c| (r, c))).collect();
        let ex = Exchange::new(&model, cells);
        assert!(ex.answers.iter().any(|a| a.is_ok()));
        assert!(ex.answers.iter().any(|a| a.is_err()));
        ex
    }

    #[test]
    fn the_expected_response_and_a_reformatted_one_pass() {
        let ex = exchange();
        assert_eq!(ex.verify(200, &ex.expected), Ok(720));
        // The same answers rendered differently still pass.
        let compact: Vec<u8> = ex.expected.iter().copied().filter(|&b| b != b' ').collect();
        assert_eq!(ex.verify(200, &compact), Ok(720));
    }

    #[test]
    fn a_mutated_response_is_rejected() {
        let ex = exchange();
        assert!(ex.verify(503, &ex.expected).is_err());
        let text = String::from_utf8(ex.expected.clone()).unwrap();
        // A changed prediction digit.
        let pos = text.find("\"prediction\": ").unwrap() + 14;
        let digit = (pos..text.len())
            .find(|&i| text.as_bytes()[i].is_ascii_digit())
            .unwrap();
        let mut changed = text.clone().into_bytes();
        changed[digit] = if changed[digit] == b'9' {
            b'8'
        } else {
            changed[digit] + 1
        };
        assert!(ex.verify(200, &changed).is_err());
        // A hit reported as a miss, and a dropped answer.
        let flipped = text.replacen("\"hit\"", "\"miss\"", 1);
        assert!(ex.verify(200, flipped.as_bytes()).is_err());
        let dropped = text.replacen("{\"row\": 0, \"col\": 0, ", "{\"row\": 0, \"col\": 1, ", 1);
        assert!(ex.verify(200, dropped.as_bytes()).is_err());
        assert!(ex.verify(200, b"{\"results\": []}").is_err());
    }
}
