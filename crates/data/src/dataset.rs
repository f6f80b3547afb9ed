//! In-memory dataset container, train/validation splits, and univariate derivation.

use crate::generators::generate_sample;
use crate::spec::{DatasetKind, DatasetSpec};
use rand::seq::SliceRandom;
use rand::Rng;
use rita_tensor::NdArray;

/// A labelled (or unlabelled) collection of fixed-length multivariate timeseries samples.
///
/// Samples are stored as `(channels, length)` arrays. Labels are class indices; the MGH
/// EEG dataset is unlabelled (`labels == None`).
#[derive(Debug, Clone)]
pub struct TimeseriesDataset {
    /// Specification this dataset was generated from.
    pub spec: DatasetSpec,
    /// Samples, each of shape `(channels, length)`.
    pub samples: Vec<NdArray>,
    /// Optional class labels, one per sample.
    pub labels: Option<Vec<usize>>,
}

/// A train/validation split of a [`TimeseriesDataset`].
#[derive(Debug, Clone)]
pub struct DataSplit {
    /// Training portion.
    pub train: TimeseriesDataset,
    /// Validation portion.
    pub valid: TimeseriesDataset,
}

impl TimeseriesDataset {
    /// Generates a synthetic dataset for `spec`, with labels balanced across classes for
    /// labelled datasets.
    pub fn generate(spec: DatasetSpec, rng: &mut impl Rng) -> Self {
        let total = spec.total_size();
        let mut samples = Vec::with_capacity(total);
        let mut labels = if spec.is_labeled() { Some(Vec::with_capacity(total)) } else { None };
        for i in 0..total {
            let class = if spec.is_labeled() { i % spec.num_classes } else { 0 };
            samples.push(generate_sample(&spec, class, rng));
            if let Some(l) = labels.as_mut() {
                l.push(class);
            }
        }
        let mut ds = Self { spec, samples, labels };
        ds.shuffle(rng);
        ds
    }

    /// Convenience: generate a reduced-scale dataset for `kind`.
    pub fn generate_reduced(
        kind: DatasetKind,
        train_size: usize,
        valid_size: usize,
        length: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self::generate(kind.reduced_spec(train_size, valid_size, length), rng)
    }

    /// Convenience: generate a reduced-scale *variable-length* dataset — sample lengths
    /// are drawn uniformly from `buckets` evenly spaced values in `[min_length, length]`
    /// (the paper's Fig. 4 varying-length workload).
    pub fn generate_variable(
        kind: DatasetKind,
        train_size: usize,
        valid_size: usize,
        min_length: usize,
        length: usize,
        buckets: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let spec = kind
            .reduced_spec(train_size, valid_size, length)
            .with_variable_length(min_length, buckets);
        Self::generate(spec, rng)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of channels per sample.
    pub fn channels(&self) -> usize {
        self.spec.channels
    }

    /// Nominal (maximum) length in timestamps. For variable-length datasets individual
    /// samples may be shorter — see [`TimeseriesDataset::sample_length`].
    pub fn length(&self) -> usize {
        self.spec.length
    }

    /// Length (timestamps) of sample `i`.
    pub fn sample_length(&self, i: usize) -> usize {
        self.samples[i].shape()[1]
    }

    /// Per-sample lengths, aligned with `samples` — the input to length-bucketed batching
    /// ([`crate::batch::batch_indices_by_length`]).
    pub fn lengths(&self) -> Vec<usize> {
        self.samples.iter().map(|s| s.shape()[1]).collect()
    }

    /// `true` when samples do not all share one length.
    pub fn is_variable_length(&self) -> bool {
        let mut lens = self.samples.iter().map(|s| s.shape()[1]);
        match lens.next() {
            Some(first) => lens.any(|l| l != first),
            None => false,
        }
    }

    /// Shuffles samples (and labels) in place.
    pub fn shuffle(&mut self, rng: &mut impl Rng) {
        let mut order: Vec<usize> = (0..self.samples.len()).collect();
        order.shuffle(rng);
        self.samples = order.iter().map(|&i| self.samples[i].clone()).collect();
        if let Some(labels) = &self.labels {
            self.labels = Some(order.iter().map(|&i| labels[i]).collect());
        }
    }

    /// Splits into train/validation according to the spec's sizes (train first). The
    /// paper uses a 0.9/0.1 random split; [`TimeseriesDataset::generate`] already
    /// shuffles, so taking the prefix is a random split.
    pub fn split(&self) -> DataSplit {
        let train_n = self.spec.train_size.min(self.len());
        self.split_at(train_n)
    }

    /// Splits after `train_n` samples.
    pub fn split_at(&self, train_n: usize) -> DataSplit {
        let train_n = train_n.min(self.len());
        let mut train_spec = self.spec;
        train_spec.train_size = train_n;
        train_spec.valid_size = 0;
        let mut valid_spec = self.spec;
        valid_spec.train_size = 0;
        valid_spec.valid_size = self.len() - train_n;
        let train = TimeseriesDataset {
            spec: train_spec,
            samples: self.samples[..train_n].to_vec(),
            labels: self.labels.as_ref().map(|l| l[..train_n].to_vec()),
        };
        let valid = TimeseriesDataset {
            spec: valid_spec,
            samples: self.samples[train_n..].to_vec(),
            labels: self.labels.as_ref().map(|l| l[train_n..].to_vec()),
        };
        DataSplit { train, valid }
    }

    /// Derives a univariate dataset by keeping a single channel
    /// (how the paper builds WISDM*/HHAR*/RWHAR*).
    pub fn to_univariate(&self, channel: usize) -> TimeseriesDataset {
        assert!(channel < self.channels(), "channel {channel} out of range");
        let samples = self
            .samples
            .iter()
            .map(|s| s.slice_axis(0, channel, channel + 1).expect("channel slice"))
            .collect();
        let mut spec = self.spec;
        spec.channels = 1;
        spec.kind = match spec.kind {
            DatasetKind::Wisdm => DatasetKind::WisdmUni,
            DatasetKind::Hhar => DatasetKind::HharUni,
            DatasetKind::Rwhar => DatasetKind::RwharUni,
            other => other,
        };
        TimeseriesDataset { spec, samples, labels: self.labels.clone() }
    }

    /// Truncates every sample to the first `length` timestamps (used by the
    /// varying-length experiment, Fig. 4).
    pub fn truncate_length(&self, length: usize) -> TimeseriesDataset {
        assert!(length <= self.length(), "cannot truncate {} to {length}", self.length());
        // Materialize: a truncated dataset is long-lived and should not pin the full-length
        // buffers of its source alive through slice views.
        let samples = self
            .samples
            .iter()
            .map(|s| s.slice_axis(1, 0, length).expect("truncate").materialize())
            .collect();
        let mut spec = self.spec;
        spec.length = length;
        TimeseriesDataset { spec, samples, labels: self.labels.clone() }
    }

    /// Keeps only the first `n` samples per class (the "few-label fine-tuning" setting:
    /// the paper uses 100 labelled samples per class).
    pub fn few_labels_per_class(&self, n: usize) -> TimeseriesDataset {
        let labels = self.labels.as_ref().expect("few_labels_per_class requires labels");
        let mut counts = vec![0usize; self.spec.num_classes];
        let mut keep = Vec::new();
        for (i, &l) in labels.iter().enumerate() {
            if counts[l] < n {
                counts[l] += 1;
                keep.push(i);
            }
        }
        let samples = keep.iter().map(|&i| self.samples[i].clone()).collect();
        let kept_labels = keep.iter().map(|&i| labels[i]).collect();
        let mut spec = self.spec;
        spec.train_size = keep.len();
        spec.valid_size = 0;
        TimeseriesDataset { spec, samples, labels: Some(kept_labels) }
    }

    /// Keeps the first `fraction` (0..=1) of the samples (pretraining-size ablation, Table 5).
    pub fn take_fraction(&self, fraction: f32) -> TimeseriesDataset {
        let n = ((self.len() as f32) * fraction.clamp(0.0, 1.0)).round() as usize;
        let mut spec = self.spec;
        spec.train_size = n;
        spec.valid_size = 0;
        TimeseriesDataset {
            spec,
            samples: self.samples[..n].to_vec(),
            labels: self.labels.as_ref().map(|l| l[..n].to_vec()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rita_tensor::SeedableRng64;

    fn rng(seed: u64) -> SeedableRng64 {
        SeedableRng64::seed_from_u64(seed)
    }

    fn tiny(kind: DatasetKind) -> TimeseriesDataset {
        TimeseriesDataset::generate_reduced(kind, 40, 10, 60, &mut rng(1))
    }

    #[test]
    fn generate_balanced_and_shuffled() {
        let ds = tiny(DatasetKind::Hhar);
        assert_eq!(ds.len(), 50);
        assert_eq!(ds.channels(), 3);
        assert_eq!(ds.length(), 60);
        let labels = ds.labels.as_ref().unwrap();
        // Balanced across the 5 classes (50 / 5 = 10 each).
        for c in 0..5 {
            assert_eq!(labels.iter().filter(|&&l| l == c).count(), 10);
        }
        // Shuffled: labels should not be exactly the cyclic pattern 0,1,2,3,4,...
        let cyclic: Vec<usize> = (0..50).map(|i| i % 5).collect();
        assert_ne!(labels, &cyclic);
    }

    #[test]
    fn unlabeled_mgh_has_no_labels() {
        let ds = TimeseriesDataset::generate_reduced(DatasetKind::Mgh, 4, 2, 500, &mut rng(2));
        assert!(ds.labels.is_none());
        assert_eq!(ds.channels(), 21);
    }

    #[test]
    fn split_respects_sizes_and_alignment() {
        let ds = tiny(DatasetKind::Rwhar);
        let split = ds.split();
        assert_eq!(split.train.len(), 40);
        assert_eq!(split.valid.len(), 10);
        // Sample/label alignment preserved: re-splitting at a different point keeps pairs.
        let s2 = ds.split_at(25);
        assert_eq!(s2.train.len(), 25);
        assert_eq!(s2.valid.len(), 25);
        assert_eq!(s2.train.labels.as_ref().unwrap()[3], ds.labels.as_ref().unwrap()[3]);
        assert_eq!(s2.valid.samples[0], ds.samples[25]);
    }

    #[test]
    fn univariate_derivation_keeps_labels() {
        let ds = tiny(DatasetKind::Wisdm);
        let uni = ds.to_univariate(1);
        assert_eq!(uni.channels(), 1);
        assert_eq!(uni.spec.kind, DatasetKind::WisdmUni);
        assert_eq!(uni.labels, ds.labels);
        // the kept channel matches channel 1 of the original
        assert_eq!(
            uni.samples[0].as_slice(),
            ds.samples[0].slice_axis(0, 1, 2).unwrap().as_slice()
        );
    }

    #[test]
    fn truncate_length_shortens_samples() {
        let ds = TimeseriesDataset::generate_reduced(DatasetKind::Mgh, 3, 1, 400, &mut rng(3));
        let t = ds.truncate_length(100);
        assert_eq!(t.length(), 100);
        assert_eq!(t.samples[0].shape(), &[21, 100]);
        assert_eq!(t.samples[0].as_slice()[..100], ds.samples[0].as_slice()[..100]);
    }

    #[test]
    fn few_labels_per_class_caps_counts() {
        let ds = tiny(DatasetKind::Hhar);
        let few = ds.few_labels_per_class(3);
        assert_eq!(few.len(), 15);
        let labels = few.labels.as_ref().unwrap();
        for c in 0..5 {
            assert_eq!(labels.iter().filter(|&&l| l == c).count(), 3);
        }
    }

    #[test]
    fn variable_length_generation_mixes_bucket_lengths() {
        let ds =
            TimeseriesDataset::generate_variable(DatasetKind::Hhar, 24, 0, 40, 80, 3, &mut rng(7));
        assert!(ds.is_variable_length());
        assert_eq!(ds.length(), 80);
        let buckets = ds.spec.bucket_lengths();
        assert_eq!(buckets, vec![40, 60, 80]);
        let lengths = ds.lengths();
        assert_eq!(lengths.len(), 24);
        assert_eq!(lengths.iter().max(), Some(&80));
        for (i, &l) in lengths.iter().enumerate() {
            assert!(buckets.contains(&l));
            assert_eq!(ds.sample_length(i), l);
        }
        let distinct: std::collections::BTreeSet<usize> = lengths.into_iter().collect();
        assert!(distinct.len() > 1, "expected mixed lengths, got {distinct:?}");
        // Labels stay aligned through the shuffle.
        assert_eq!(ds.labels.as_ref().unwrap().len(), 24);
        // Fixed-length datasets report themselves as such.
        assert!(!tiny(DatasetKind::Hhar).is_variable_length());
    }

    #[test]
    fn take_fraction_prefixes() {
        let ds = tiny(DatasetKind::Wisdm);
        let half = ds.take_fraction(0.5);
        assert_eq!(half.len(), 25);
        assert_eq!(half.samples[0], ds.samples[0]);
        assert_eq!(ds.take_fraction(2.0).len(), ds.len());
        assert_eq!(ds.take_fraction(0.0).len(), 0);
    }
}
