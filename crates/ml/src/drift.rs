//! Drifting-pattern detection via median absolute deviation (paper §III-B3):
//! per-class centroids in the learned latent space, per-class MAD of
//! centroid distances, and the `A^k = min_i |d_i - median_i| / MAD_i > T_M`
//! outlier rule with the paper's empirical threshold `T_M = 3`.

use fexiot_tensor::codec::CodecError;
use fexiot_tensor::matrix::Matrix;
use fexiot_tensor::stats::{euclidean, mad, median};

/// The paper's empirical drift threshold.
pub const DEFAULT_DRIFT_THRESHOLD: f64 = 3.0;

/// Per-class latent statistics for drift scoring.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    /// One row per class.
    centroids: Matrix,
    /// Median of within-class centroid distances, per class.
    medians: Vec<f64>,
    /// MAD of within-class centroid distances, per class.
    mads: Vec<f64>,
    pub threshold: f64,
}

impl DriftDetector {
    /// Fits from latent embeddings (rows) and class labels.
    ///
    /// # Panics
    /// Panics if `embeddings` is empty or a class has no members.
    pub fn fit(embeddings: &Matrix, labels: &[usize], threshold: f64) -> Self {
        assert!(embeddings.rows() > 0, "drift: empty embeddings");
        assert_eq!(
            embeddings.rows(),
            labels.len(),
            "drift: label count mismatch"
        );
        let classes = labels.iter().copied().max().map_or(1, |m| m + 1);

        let mut centroids = Matrix::zeros(classes, embeddings.cols());
        let mut counts = vec![0usize; classes];
        for (i, &l) in labels.iter().enumerate() {
            counts[l] += 1;
            for (c, &v) in embeddings.row(i).iter().enumerate() {
                centroids[(l, c)] += v;
            }
        }
        for l in 0..classes {
            assert!(counts[l] > 0, "drift: class {l} has no members");
            for c in 0..embeddings.cols() {
                centroids[(l, c)] /= counts[l] as f64;
            }
        }

        let mut medians = vec![0.0; classes];
        let mut mads = vec![0.0; classes];
        for l in 0..classes {
            let dists: Vec<f64> = labels
                .iter()
                .enumerate()
                .filter(|(_, &x)| x == l)
                .map(|(i, _)| euclidean(embeddings.row(i), centroids.row(l)))
                .collect();
            medians[l] = median(&dists);
            mads[l] = mad(&dists);
        }
        Self {
            centroids,
            medians,
            mads,
            threshold,
        }
    }

    /// The normalized deviation `A^k` for one sample: the *minimum* over
    /// classes of `|d_i - median_i| / MAD_i` (a sample close to any known
    /// class is not drifting).
    pub fn score(&self, embedding: &[f64]) -> f64 {
        let mut best = f64::INFINITY;
        for l in 0..self.centroids.rows() {
            let d = euclidean(embedding, self.centroids.row(l));
            // Degenerate class (MAD = 0): any deviation is infinitely
            // surprising, but cap via a small epsilon to stay finite.
            let m = self.mads[l].max(1e-9);
            best = best.min((d - self.medians[l]).abs() / m);
        }
        best
    }

    /// Width of the latent samples the detector scores.
    pub fn dim(&self) -> usize {
        self.centroids.cols()
    }

    /// True if the sample is a potential drifting sample.
    pub fn is_drifting(&self, embedding: &[f64]) -> bool {
        self.score(embedding) > self.threshold
    }

    /// Serializes the detector (centroids + per-class statistics + threshold).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = fexiot_tensor::codec::ByteWriter::new();
        w.write_matrix(&self.centroids);
        w.write_f64_slice(&self.medians);
        w.write_f64_slice(&self.mads);
        w.write_f64(self.threshold);
        w.into_bytes()
    }

    /// Restores a detector from [`DriftDetector::to_bytes`] output. Every
    /// class needs its centroid, median and MAD.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = fexiot_tensor::codec::ByteReader::new(bytes);
        let detector = Self {
            centroids: r.read_matrix()?,
            medians: r.read_f64_vec()?,
            mads: r.read_f64_vec()?,
            threshold: r.read_f64()?,
        };
        let classes = detector.centroids.rows();
        if detector.medians.len() != classes || detector.mads.len() != classes {
            return Err(CodecError::ShapeMismatch);
        }
        Ok(detector)
    }

    /// Flags every row; returns indices of drifting samples.
    pub fn filter_drifting(&self, embeddings: &Matrix) -> Vec<usize> {
        (0..embeddings.rows())
            .filter(|&r| self.is_drifting(embeddings.row(r)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fexiot_tensor::rng::Rng;

    fn training_data(seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2 {
            for _ in 0..60 {
                rows.push(vec![
                    c as f64 * 6.0 + rng.normal(0.0, 0.8),
                    c as f64 * -6.0 + rng.normal(0.0, 0.8),
                ]);
                labels.push(c);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn in_distribution_samples_not_drifting() {
        let (x, y) = training_data(1);
        let det = DriftDetector::fit(&x, &y, DEFAULT_DRIFT_THRESHOLD);
        let mut rng = Rng::seed_from_u64(2);
        let mut flagged = 0;
        for _ in 0..50 {
            let c = rng.usize(2);
            let sample = [
                c as f64 * 6.0 + rng.normal(0.0, 0.8),
                c as f64 * -6.0 + rng.normal(0.0, 0.8),
            ];
            if det.is_drifting(&sample) {
                flagged += 1;
            }
        }
        assert!(flagged <= 5, "{flagged}/50 in-distribution flagged");
    }

    #[test]
    fn far_samples_are_drifting() {
        let (x, y) = training_data(3);
        let det = DriftDetector::fit(&x, &y, DEFAULT_DRIFT_THRESHOLD);
        assert!(det.is_drifting(&[40.0, 40.0]));
        assert!(det.is_drifting(&[-30.0, 5.0]));
    }

    #[test]
    fn score_is_min_over_classes() {
        let (x, y) = training_data(4);
        let det = DriftDetector::fit(&x, &y, DEFAULT_DRIFT_THRESHOLD);
        // A point at class-1 centroid: near class 1 even though far from class 0.
        let s = det.score(&[6.0, -6.0]);
        assert!(s < 3.0, "score {s}");
    }

    #[test]
    fn filter_returns_drifting_indices() {
        let (x, y) = training_data(5);
        let det = DriftDetector::fit(&x, &y, DEFAULT_DRIFT_THRESHOLD);
        let test = Matrix::from_rows(&[
            vec![0.0, 0.0],   // class 0 region
            vec![50.0, 50.0], // drift
            vec![6.0, -6.0],  // class 1 region
        ]);
        assert_eq!(det.filter_drifting(&test), vec![1]);
    }

    #[test]
    fn serialization_roundtrip_preserves_decisions() {
        let (x, y) = training_data(6);
        let det = DriftDetector::fit(&x, &y, DEFAULT_DRIFT_THRESHOLD);
        let back = DriftDetector::from_bytes(&det.to_bytes()).unwrap();
        for probe in [[0.0, 0.0], [50.0, 50.0], [6.0, -6.0]] {
            assert_eq!(det.score(&probe), back.score(&probe));
            assert_eq!(det.is_drifting(&probe), back.is_drifting(&probe));
        }
    }

    #[test]
    fn degenerate_class_stays_finite() {
        // All class-0 points identical: MAD = 0.
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![5.0], vec![6.0]]);
        let y = vec![0, 0, 1, 1];
        let det = DriftDetector::fit(&x, &y, DEFAULT_DRIFT_THRESHOLD);
        let s = det.score(&[1.1]);
        assert!(s.is_finite());
    }
}
