//! GPU-friendly k-means grouping (§4.4 of the paper).
//!
//! The paper groups windows by the similarity of their key vectors using a k-means
//! variant designed around three requirements: a tight distance bound, cost not exceeding
//! `O(nN)`, and a formulation dominated by matrix products (the "GPU friendly" part).
//! This module implements both formulations the paper discusses:
//!
//! * [`kmeans_matmul`] — distances via `|v|² + |c|² − 2 v·c`, so the `n × N` distance
//!   matrix is one matrix product (the formulation RITA uses);
//! * [`kmeans_pairwise`] — the naive per-pair `(v − c)²` loop, kept as the ablation
//!   baseline for the grouping benchmark.
//!
//! Both run a small, fixed number of iterations: the paper observes that an imperfect
//! clustering is sufficient because group attention is robust to it.

use rita_tensor::NdArray;

/// Result of grouping `n` vectors into (at most) `num_groups` clusters.
#[derive(Debug, Clone)]
pub struct Grouping {
    /// Cluster centres, shape `(num_groups, d)`.
    pub centers: NdArray,
    /// `assignments[i]` = cluster index of vector `i`.
    pub assignments: Vec<usize>,
    /// Number of members per cluster.
    pub counts: Vec<usize>,
    /// Maximum member-to-centre distance per cluster (the per-cluster radius used by the
    /// adaptive scheduler's merge test, Lemma 2).
    pub radii: Vec<f32>,
}

impl Grouping {
    /// Number of clusters.
    pub fn num_groups(&self) -> usize {
        self.counts.len()
    }

    /// Largest member-to-centre distance over all clusters (the `d` of Lemma 1).
    pub fn max_radius(&self) -> f32 {
        self.radii.iter().copied().fold(0.0, f32::max)
    }
}

/// Squared L2 norms of each row of `x` (`(n, d)` → length-`n` vector). Stride-aware:
/// reads the rows of a head-split view in place.
fn row_sq_norms(x: &NdArray) -> Vec<f32> {
    x.rows().map(|r| r.iter().map(|&v| v * v).sum()).collect()
}

/// Rows whose distances one step of the farthest-point sweep advances together: sixteen
/// independent add chains, which the compiler keeps in vector registers.
const LANES: usize = 16;

/// Picks the rows of `k` initial centres with a deterministic farthest-point sweep
/// (k-means++ without the randomisation): the first centre is row 0, each subsequent
/// centre is the row farthest from all centres chosen so far. Deterministic, `O(nkd)`,
/// and robust to the periodic layouts produced by timeseries windows.
///
/// The rows are transposed once into a `(d, n)` scratch, `n` padded to [`LANES`], so a
/// sweep advances [`LANES`] rows' distances per load instead of waiting on one row's
/// serial add chain. Each row still sums `(x_j − c_j)²` over `j` ascending from `0.0` —
/// the order, and so the bits, of a per-row `.map(..).sum()` — and the argmax is a
/// scalar scan with strict `>`, so ties go to the lowest index.
fn init_centers(x: &NdArray, k: usize) -> Vec<usize> {
    let (n, d) = (x.shape()[0], x.shape()[1]);
    let mut chosen = Vec::with_capacity(k);
    chosen.push(0usize);
    if k > 1 {
        let n_pad = n.next_multiple_of(LANES);
        let mut xt = vec![0.0f32; d * n_pad];
        for (i, row) in x.rows().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                xt[j * n_pad + i] = v;
            }
        }
        // Min squared distance from each point to the chosen set (padding lanes unread).
        let mut min_dist = vec![f32::INFINITY; n_pad];
        for _ in 1..k {
            let c = x.row(*chosen.last().expect("non-empty"));
            for (lane0, md) in (0..n_pad).step_by(LANES).zip(min_dist.chunks_exact_mut(LANES)) {
                let mut acc = [0.0f32; LANES];
                for (j, &cj) in c.iter().enumerate() {
                    let col = &xt[j * n_pad + lane0..][..LANES];
                    for (a, &v) in acc.iter_mut().zip(col) {
                        let t = v - cj;
                        *a += t * t;
                    }
                }
                for (m, &dist) in md.iter_mut().zip(&acc) {
                    if dist < *m {
                        *m = dist;
                    }
                }
            }
            let (mut best, mut best_d) = (0usize, -1.0f32);
            for (i, &m) in min_dist[..n].iter().enumerate() {
                if m > best_d {
                    best_d = m;
                    best = i;
                }
            }
            chosen.push(best);
        }
    }
    chosen
}

/// Matrix-product formulation of k-means (the paper's GPU-friendly grouping).
///
/// `x` has shape `(n, d)`; `num_groups` is clamped to `n`. Runs `iters` assignment/update
/// rounds (the paper notes a handful suffices).
pub fn kmeans_matmul(x: &NdArray, num_groups: usize, iters: usize) -> Grouping {
    kmeans_impl(x, num_groups, iters, true)
}

/// Pairwise-difference formulation (ablation baseline; identical output, slower inner loop).
pub fn kmeans_pairwise(x: &NdArray, num_groups: usize, iters: usize) -> Grouping {
    kmeans_impl(x, num_groups, iters, false)
}

fn kmeans_impl(x: &NdArray, num_groups: usize, iters: usize, use_matmul: bool) -> Grouping {
    assert_eq!(x.ndim(), 2, "kmeans expects (n, d) input");
    let n = x.shape()[0];
    assert!(n > 0, "kmeans on empty input");
    // Strided views (e.g. the per-head key blocks of a split-heads tensor) are consumed
    // in place as long as their rows are contiguous; anything wilder is compacted once.
    let x = &x.with_contiguous_rows();
    let k = num_groups.clamp(1, n);
    lloyd(x, &init_centers(x, k), iters, use_matmul)
}

/// Runs the assignment/update rounds on `x` (rows contiguous) from the centres at its
/// rows `init`, then measures the final counts and radii.
fn lloyd(x: &NdArray, init: &[usize], iters: usize, use_matmul: bool) -> Grouping {
    let (n, d, k) = (x.shape()[0], x.shape()[1], init.len());
    let mut centers = x.gather_rows(init).expect("init centers");
    let mut assignments = vec![0usize; n];
    // Squared distance of each point to its assigned centre, kept from the assignment
    // step; drives the empty-cluster re-seeding below.
    let mut dists = vec![0.0f32; n];

    let x_sq = row_sq_norms(x);
    for _ in 0..iters.max(1) {
        // --- assignment step ---
        if use_matmul {
            // dist²(i, j) = |x_i|² + |c_j|² − 2 x_i·c_j ; the cross term is one matmul
            // through the blocked packed kernel, with the −2 factor folded into its
            // packing pass instead of a per-element multiply here.
            let c_sq = row_sq_norms(&centers);
            let cross = x.matmul_nt_scaled(&centers, -2.0).expect("kmeans cross term"); // (n, k)
            let cross_data = cross.as_slice();
            for i in 0..n {
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for j in 0..k {
                    let dist = x_sq[i] + c_sq[j] + cross_data[i * k + j];
                    if dist < best_d {
                        best_d = dist;
                        best = j;
                    }
                }
                assignments[i] = best;
                dists[i] = best_d.max(0.0);
            }
        } else {
            let cd = centers.as_slice();
            for (i, xi) in x.rows().enumerate() {
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for j in 0..k {
                    let cj = &cd[j * d..(j + 1) * d];
                    let dist: f32 = xi.iter().zip(cj).map(|(a, b)| (a - b) * (a - b)).sum();
                    if dist < best_d {
                        best_d = dist;
                        best = j;
                    }
                }
                assignments[i] = best;
                dists[i] = best_d;
            }
        }

        // --- update step ---
        let mut sums = vec![0.0f32; k * d];
        let mut counts = vec![0usize; k];
        for (xi, &a) in x.rows().zip(assignments.iter()) {
            counts[a] += 1;
            for (s, &v) in sums[a * d..(a + 1) * d].iter_mut().zip(xi) {
                *s += v;
            }
        }
        let cd = centers.as_mut_slice();
        for g in 0..k {
            if counts[g] > 0 {
                let inv = 1.0 / counts[g] as f32;
                for j in 0..d {
                    cd[g * d + j] = sums[g * d + j] * inv;
                }
            }
        }

        // --- empty-cluster re-seeding ---
        // Periodic/duplicated key layouts (the windowed-timeseries regime) make the
        // farthest-point init pick duplicate centres, which leaves clusters permanently
        // empty under the old keep-the-stale-centre convention. Re-seed each empty
        // cluster with the most outlying point — ranked by the assignment step's
        // distances, i.e. against the pre-update centres, a deliberately cheap
        // heuristic — taken from a donor cluster that keeps at least one member, moving
        // that point's assignment so counts stay consistent within this iteration;
        // k ≤ n guarantees a donor exists whenever a cluster is empty.
        for g in 0..k {
            if counts[g] > 0 {
                continue;
            }
            let mut pick: Option<usize> = None;
            for i in 0..n {
                if counts[assignments[i]] < 2 {
                    continue;
                }
                if pick.is_none_or(|p| dists[i] > dists[p]) {
                    pick = Some(i);
                }
            }
            let i = pick.expect("k <= n guarantees a donor point for every empty cluster");
            let donor = assignments[i];
            cd[g * d..(g + 1) * d].copy_from_slice(x.row(i));
            // Keep the donor's stored centre equal to the mean of its *remaining*
            // members: the attention pipeline's representatives are exact segment
            // means, so the scheduler's radii/merge tests must measure against the
            // same centroids (a stale donor mean would let the Lemma-2 merge test
            // silently exceed the user's epsilon bound).
            counts[donor] -= 1;
            let inv = 1.0 / counts[donor] as f32;
            for j in 0..d {
                sums[donor * d + j] -= cd[g * d + j];
                cd[donor * d + j] = sums[donor * d + j] * inv;
            }
            assignments[i] = g;
            counts[g] = 1;
            dists[i] = 0.0;
        }
    }

    // Final statistics: counts and radii against the final centres/assignments.
    let mut counts = vec![0usize; k];
    let mut radii = vec![0.0f32; k];
    let cd = centers.as_slice();
    for (xi, &a) in x.rows().zip(assignments.iter()) {
        counts[a] += 1;
        let dist: f32 = xi
            .iter()
            .zip(&cd[a * d..(a + 1) * d])
            .map(|(x, c)| (x - c) * (x - c))
            .sum::<f32>()
            .sqrt();
        radii[a] = radii[a].max(dist);
    }

    Grouping { centers, assignments, counts, radii }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rita_tensor::SeedableRng64;

    fn two_blobs(n_per: usize, seed: u64) -> NdArray {
        let mut rng = SeedableRng64::seed_from_u64(seed);
        let a = NdArray::randn(&[n_per, 4], 0.1, &mut rng).add_scalar(0.0);
        let b = NdArray::randn(&[n_per, 4], 0.1, &mut rng).add_scalar(5.0);
        NdArray::concat(&[&a, &b], 0).unwrap()
    }

    #[test]
    fn separates_two_well_separated_blobs() {
        let x = two_blobs(20, 1);
        let g = kmeans_matmul(&x, 2, 8);
        assert_eq!(g.num_groups(), 2);
        assert_eq!(g.assignments.len(), 40);
        // All of blob 1 lands in one cluster, all of blob 2 in the other.
        let first = g.assignments[0];
        assert!(g.assignments[..20].iter().all(|&a| a == first));
        assert!(g.assignments[20..].iter().all(|&a| a != first));
        assert_eq!(g.counts, vec![20, 20]);
        assert!(g.max_radius() < 1.0);
    }

    #[test]
    fn matmul_and_pairwise_formulations_agree() {
        let x = two_blobs(15, 3);
        let a = kmeans_matmul(&x, 4, 5);
        let b = kmeans_pairwise(&x, 4, 5);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.counts, b.counts);
        for (ca, cb) in a.centers.as_slice().iter().zip(b.centers.as_slice()) {
            assert!((ca - cb).abs() < 1e-4);
        }
    }

    #[test]
    fn num_groups_clamped_to_n() {
        let x = NdArray::from_vec(vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0], &[3, 2]).unwrap();
        let g = kmeans_matmul(&x, 10, 3);
        assert_eq!(g.num_groups(), 3);
        assert_eq!(g.counts.iter().sum::<usize>(), 3);
    }

    #[test]
    fn single_group_contains_everything() {
        let x = two_blobs(5, 7);
        let g = kmeans_matmul(&x, 1, 3);
        assert_eq!(g.counts, vec![10]);
        assert!(g.assignments.iter().all(|&a| a == 0));
        // Centre is the global mean.
        let mean = x.mean_axis(0, false).unwrap();
        for (c, m) in g.centers.as_slice().iter().zip(mean.as_slice()) {
            assert!((c - m).abs() < 1e-4);
        }
    }

    #[test]
    fn matrices_encode_assignments() {
        let x = two_blobs(4, 9);
        let g = kmeans_matmul(&x, 2, 5);
        // `counts` is the histogram of `assignments`.
        for group in 0..2 {
            assert_eq!(g.assignments.iter().filter(|&&a| a == group).count(), g.counts[group]);
        }
        assert_eq!(g.counts.iter().sum::<usize>(), 8);
    }

    /// The farthest-point sweep as it was before the lane layout: one row at a time,
    /// each distance a serial `.map(..).sum()`. The slow twin of `init_centers`.
    fn init_centers_scalar(x: &NdArray, k: usize) -> Vec<usize> {
        let n = x.shape()[0];
        let mut chosen = vec![0usize];
        let mut min_dist = vec![f32::INFINITY; n];
        for _ in 1..k {
            let lastv = x.row(*chosen.last().unwrap()).to_vec();
            let (mut best, mut best_d) = (0usize, -1.0f32);
            for (i, xi) in x.rows().enumerate() {
                let dist: f32 = xi.iter().zip(&lastv).map(|(a, b)| (a - b) * (a - b)).sum();
                if dist < min_dist[i] {
                    min_dist[i] = dist;
                }
                if min_dist[i] > best_d {
                    best_d = min_dist[i];
                    best = i;
                }
            }
            chosen.push(best);
        }
        chosen
    }

    fn bits(a: &[f32]) -> Vec<u32> {
        a.iter().map(|v| v.to_bits()).collect()
    }

    /// The lane sweep picks the scalar sweep's rows, and `kmeans_matmul` returns, bit for
    /// bit, the grouping that Lloyd's rounds reach from the scalar sweep's centres.
    fn assert_lane_init_is_the_scalar_init(x: &NdArray, k: usize, what: &str) {
        let xc = x.with_contiguous_rows();
        let want = init_centers_scalar(&xc, k);
        assert_eq!(init_centers(&xc, k), want, "{what}: rows chosen");
        let (got, want) = (kmeans_matmul(x, k, 2), lloyd(&xc, &want, 2, true));
        assert_eq!(got.assignments, want.assignments, "{what}: assignments");
        assert_eq!(got.counts, want.counts, "{what}: counts");
        let (gc, wc) = (got.centers.materialize(), want.centers.materialize());
        assert_eq!(bits(gc.as_slice()), bits(wc.as_slice()), "{what}: centres");
        assert_eq!(bits(&got.radii), bits(&want.radii), "{what}: radii");
    }

    #[test]
    fn lane_sweep_keeps_the_scalar_sweeps_choices_and_groupings() {
        let mut rng = SeedableRng64::seed_from_u64(41);
        for n in [1usize, 2, 7, 8, 9, 33, 2001] {
            for d in [1usize, 3, 8, 32, 33] {
                let x = NdArray::randn(&[n, d], 1.0, &mut rng);
                let mut ks = vec![1, n / 2, 64, n];
                // n·k·d sweeps: k ∈ {n/2, n} at n = 2001 only for the narrow rows, so a
                // debug-build run stays in seconds.
                ks.retain(|&k| (1..=n).contains(&k) && (n < 2001 || k <= 64 || d <= 3));
                ks.dedup();
                for k in ks {
                    assert_lane_init_is_the_scalar_init(&x, k, &format!("n {n} d {d} k {k}"));
                }
            }
        }
    }

    #[test]
    fn lane_sweep_keeps_ties_non_finite_rows_and_head_split_views() {
        let mut rng = SeedableRng64::seed_from_u64(43);
        // Ties: 5 prototypes over 37 rows, so most distances repeat exactly.
        let protos = NdArray::randn(&[5, 8], 1.0, &mut rng);
        let dup = protos.gather_rows(&(0..37).map(|i| (i * 3) % 5).collect::<Vec<_>>()).unwrap();
        for k in [2, 5, 9, 37] {
            assert_lane_init_is_the_scalar_init(&dup, k, &format!("duplicated rows, k {k}"));
        }
        // One row holding +∞, −∞ or NaN in one coordinate, first or mid-block.
        for (row, bad) in [(0usize, f32::INFINITY), (13, f32::NEG_INFINITY), (20, f32::NAN)] {
            let mut data = NdArray::randn(&[40, 8], 1.0, &mut rng).into_vec();
            data[row * 8 + 3] = bad;
            let x = NdArray::from_vec(data, &[40, 8]).unwrap();
            for k in [3, 16, 40] {
                assert_lane_init_is_the_scalar_init(&x, k, &format!("row {row} = {bad}, k {k}"));
            }
        }
        // The per-head blocks of a `(1, n, h·dh)` projection split into heads: rows of
        // each block are strided by h·dh.
        let (n, h, dh) = (97usize, 2usize, 32usize);
        let heads = NdArray::randn(&[1, n, h * dh], 1.0, &mut rng)
            .reshape(&[1, n, h, dh])
            .unwrap()
            .permute(&[0, 2, 1, 3])
            .unwrap();
        for head in 0..h {
            let block = heads.index_axis(0, 0).unwrap().index_axis(0, head).unwrap();
            assert!(!block.is_contiguous());
            for k in [1, 16, 64] {
                assert_lane_init_is_the_scalar_init(&block, k, &format!("head {head}, k {k}"));
            }
        }
    }

    #[test]
    fn no_empty_clusters_with_duplicated_rows() {
        // 3 distinct prototypes repeated over 12 rows, 5 clusters: the farthest-point
        // init necessarily duplicates centres, and without re-seeding at least two
        // clusters would stay permanently empty.
        let mut rng = SeedableRng64::seed_from_u64(17);
        let protos = NdArray::randn(&[3, 4], 1.0, &mut rng);
        let mut data = Vec::new();
        for i in 0..12 {
            data.extend_from_slice(&protos.as_slice()[(i % 3) * 4..(i % 3 + 1) * 4]);
        }
        let x = NdArray::from_vec(data, &[12, 4]).unwrap();
        for iters in [1usize, 2, 4, 8] {
            for formulation in [kmeans_matmul, kmeans_pairwise] {
                let g = formulation(&x, 5, iters);
                assert_eq!(g.num_groups(), 5);
                assert!(
                    g.counts.iter().all(|&c| c > 0),
                    "iters {iters}: empty cluster in counts {:?}",
                    g.counts
                );
                assert_eq!(g.counts.iter().sum::<usize>(), 12);
            }
        }
    }

    #[test]
    fn reseeding_recovers_empty_clusters_on_periodic_keys() {
        // Two tight blobs but k = 4: re-seeding must place the extra centres on real
        // points (the farthest members), not leave them stale at duplicated inits.
        let x = two_blobs(10, 23);
        let g = kmeans_matmul(&x, 4, 6);
        assert!(g.counts.iter().all(|&c| c > 0), "counts {:?}", g.counts);
        // Re-seeded centres coincide with actual data points or means thereof, so every
        // radius stays bounded by the blob spread.
        assert!(g.max_radius() < 2.0);
    }

    /// After a re-seed the donor cluster's stored centre must still be the mean of its
    /// remaining members — the attention pipeline's representatives are exact segment
    /// means, and the scheduler's radii are measured against the stored centres, so the
    /// two must agree even when the final iteration moved a point.
    #[test]
    fn centers_equal_member_means_after_reseeding() {
        for (n_per, k, iters, seed) in [(10usize, 4usize, 1usize, 29u64), (8, 5, 3, 31)] {
            let x = two_blobs(n_per, seed);
            let g = kmeans_matmul(&x, k, iters);
            let d = x.shape()[1];
            for cluster in 0..g.num_groups() {
                assert!(g.counts[cluster] > 0);
                let mut mean = vec![0.0f32; d];
                for (i, &a) in g.assignments.iter().enumerate() {
                    if a == cluster {
                        for (m, &v) in mean.iter_mut().zip(x.row(i)) {
                            *m += v;
                        }
                    }
                }
                for m in &mut mean {
                    *m /= g.counts[cluster] as f32;
                }
                for (j, m) in mean.iter().enumerate() {
                    let c = g.centers.as_slice()[cluster * d + j];
                    assert!(
                        (c - m).abs() < 1e-4,
                        "cluster {cluster} dim {j}: stored centre {c} vs member mean {m} \
                         (k={k}, iters={iters})"
                    );
                }
            }
        }
    }

    #[test]
    fn radii_cover_all_members() {
        let x = two_blobs(25, 11);
        let g = kmeans_matmul(&x, 3, 6);
        // Every member must lie within its cluster's reported radius.
        let d = x.shape()[1];
        for (i, &a) in g.assignments.iter().enumerate() {
            let dist: f32 = x.as_slice()[i * d..(i + 1) * d]
                .iter()
                .zip(&g.centers.as_slice()[a * d..(a + 1) * d])
                .map(|(p, c)| (p - c) * (p - c))
                .sum::<f32>()
                .sqrt();
            assert!(dist <= g.radii[a] + 1e-5);
        }
    }

    #[test]
    fn more_iterations_do_not_increase_distortion() {
        let x = two_blobs(30, 13);
        let distortion = |g: &Grouping| -> f32 {
            let d = x.shape()[1];
            g.assignments
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    x.as_slice()[i * d..(i + 1) * d]
                        .iter()
                        .zip(&g.centers.as_slice()[a * d..(a + 1) * d])
                        .map(|(p, c)| (p - c) * (p - c))
                        .sum::<f32>()
                })
                .sum()
        };
        let g1 = kmeans_matmul(&x, 4, 1);
        let g8 = kmeans_matmul(&x, 4, 8);
        assert!(distortion(&g8) <= distortion(&g1) + 1e-4);
    }
}
