//! The statistics the benchmark reports and judges with.
//!
//! * [`median`] and [`quartiles`] summarise repeated passes; quartiles
//!   follow Python's `statistics.quantiles(xs, n=4)` (the default
//!   "exclusive" method), so the spread printed here is the spread any
//!   outside checker computes from the same values.
//! * [`tail`] applies the reporting rule for latencies: the median plus
//!   the highest percentile that still has at least ten samples beyond
//!   it, with the sample count stated.
//! * [`judge`] applies the rule for claiming a gain: the change wins at
//!   least nine tenths of the pairs run (ties count for neither side) and
//!   the medians differ by more than the parent's own quartile spread.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them. One sample gives that
/// sample three times; an empty slice gives `NaN`s.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Distance between the first and third quartile.
pub fn iqr(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    q3 - q1
}

/// The interquartile range as a share of the median.
pub fn relative_iqr(xs: &[f64]) -> f64 {
    iqr(xs) / median(xs)
}

/// A latency summary under the ten-beyond rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Samples summarised.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// The percentile actually reported, as a fraction (0.9 = p90).
    pub pct: f64,
    /// Its value (nearest rank).
    pub value: f64,
}

/// Summarises `xs` by its median and the `wanted` percentile (a fraction,
/// e.g. 0.99), lowered to the highest percentile that still leaves at
/// least [`TAIL_BEYOND`] samples above it. With ten samples or fewer no
/// percentile above the median qualifies, so the median stands in.
/// `None` for an empty sample.
pub fn tail(xs: &[f64], wanted: f64) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let med = median(&v);
    if n <= TAIL_BEYOND {
        return Some(Tail {
            n,
            median: med,
            pct: 0.5,
            value: med,
        });
    }
    let supported = (n - TAIL_BEYOND) as f64 / n as f64;
    let pct = wanted.min(supported);
    // Nearest rank: the smallest sample with at least `pct` of the sample
    // at or below it. The small tolerance keeps 0.9 * 100 from rounding up
    // to rank 91.
    let rank = ((pct * n as f64) - 1e-9).ceil().max(1.0) as usize;
    Some(Tail {
        n,
        median: med,
        pct,
        value: v[rank - 1],
    })
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, bytes).
    Lower,
    /// Larger values are better (throughputs).
    Higher,
}

impl Better {
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// The outcome of [`judge`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Pairs in which the change beat the parent.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// Change median minus parent median.
    pub median_delta: f64,
    /// The parent's interquartile range.
    pub parent_iqr: f64,
    /// True when both parts of the rule hold.
    pub gain: bool,
}

/// Judges a claimed gain from paired runs: `parent[i]` and `change[i]`
/// ran as one pair. A gain needs the change to win at least nine tenths
/// of all pairs (ties count for neither side) and the medians to differ,
/// in the better direction, by more than the parent's interquartile range.
pub fn judge(parent: &[f64], change: &[f64], better: Better) -> Verdict {
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better.beats(c, p))
        .count();
    let (pm, cm) = (median(&parent[..pairs]), median(&change[..pairs]));
    let parent_iqr = iqr(&parent[..pairs]);
    let gain =
        pairs > 0 && wins * 10 >= pairs * 9 && better.beats(cm, pm) && (cm - pm).abs() > parent_iqr;
    Verdict {
        wins,
        pairs,
        median_delta: cm - pm,
        parent_iqr,
        gain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Values from CPython 3.11: statistics.quantiles(range(1, 11), n=4)
        // == [2.75, 5.5, 8.25].
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&xs);
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
        let q = quartiles(&[2.0, 1.0]);
        assert!(
            close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25),
            "{q:?}"
        );
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0].
        let q = quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]);
        assert!(
            close(q[0], 2.0) && close(q[1], 5.0) && close(q[2], 8.0),
            "{q:?}"
        );
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn iqr_and_its_share_of_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(iqr(&xs), 5.5));
        assert!(close(relative_iqr(&xs), 1.0));
        assert_eq!(iqr(&[7.0; 6]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_percentile() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 0.99).unwrap();
        assert_eq!(t.n, 1000);
        assert!(close(t.pct, 0.99));
        assert_eq!(t.value, 990.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.median, 500.5);
    }

    #[test]
    fn tail_lowers_the_percentile_when_the_sample_is_small() {
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        let t = tail(&xs, 0.99).unwrap();
        assert_eq!(t.n, 50);
        assert!(
            close(t.pct, 0.8),
            "highest percentile with 10 beyond: {}",
            t.pct
        );
        assert_eq!(t.value, 40.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        // p90 of 100 samples is exactly supported.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 0.9).unwrap();
        assert!(close(t.pct, 0.9));
        assert_eq!(t.value, 90.0);
    }

    #[test]
    fn tail_falls_back_to_the_median_for_ten_or_fewer_samples() {
        let xs = [5.0, 1.0, 3.0];
        let t = tail(&xs, 0.9).unwrap();
        assert_eq!((t.n, t.pct, t.value), (3, 0.5, 3.0));
        assert!(tail(&[], 0.9).is_none());
    }

    #[test]
    fn judge_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_spread() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let faster = parent.map(|x| x - 1.0);
        let v = judge(&parent, &faster, Better::Lower);
        assert_eq!((v.wins, v.pairs), (10, 10));
        assert!(v.gain);

        // Eight wins of ten is not enough, however large the gap.
        let mut eight = faster;
        eight[0] = 11.0;
        eight[1] = 11.0;
        let v = judge(&parent, &eight, Better::Lower);
        assert_eq!(v.wins, 8);
        assert!(!v.gain);

        // Nine wins and one tie: ties count for neither side.
        let mut nine = faster;
        nine[3] = parent[3];
        let v = judge(&parent, &nine, Better::Lower);
        assert_eq!(v.wins, 9);
        assert!(v.gain);

        // Every pair won, but by less than the parent's own spread.
        let nudged = parent.map(|x| x - 0.01);
        let v = judge(&parent, &nudged, Better::Lower);
        assert_eq!(v.wins, 10);
        assert!(
            !v.gain,
            "gap {} within spread {}",
            v.median_delta, v.parent_iqr
        );

        // The direction matters: higher-is-better reads the same data the
        // other way round.
        assert!(!judge(&parent, &faster, Better::Higher).gain);
        assert!(judge(&faster, &parent, Better::Higher).gain);
    }
}
