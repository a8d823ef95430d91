//! Order statistics shared by every measurement.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample; NaN
/// for an empty one, which the run reports as a failed measurement.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median by nearest rank (the lower middle for even counts).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Time `iters` calls of `f` per batch for `batches` batches and return
/// the median nanoseconds per call. Taking the median batch discards the
/// batches in which the OS preempted the timing thread, which matters
/// here: the machine's combiner threads spin on the same cores.
pub fn ns_per_call(batches: usize, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per = Vec::with_capacity(batches);
    for b in 0..batches {
        let t0 = std::time::Instant::now();
        for i in 0..iters {
            f(b * iters + i);
        }
        per.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
