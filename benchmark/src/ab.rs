//! The A/B verdict: alternating pairs of runs of two revisions, judged by
//! the rule of the choosing-metrics guide (section 8).

use crate::stats::{median, quartiles};

/// Outcome of comparing one lower-is-better metric over paired runs.
#[derive(Debug, PartialEq)]
pub struct Verdict {
    pub median_a: f64,
    pub median_b: f64,
    pub quartiles_a: (f64, f64),
    pub quartiles_b: (f64, f64),
    /// Pairs in which B read lower than A / A lower than B (ties: neither).
    pub b_wins: usize,
    pub a_wins: usize,
    pub pairs: usize,
    pub verdict: &'static str,
}

/// B is a gain over A only if at least ten pairs ran, it wins at least nine
/// tenths of them and the medians differ by more than A's own inter-quartile range; the
/// mirror image is a regression; anything else is unresolved.
pub fn judge(a: &[f64], b: &[f64]) -> Verdict {
    let pairs = a.len().min(b.len());
    let b_wins = a.iter().zip(b).filter(|(x, y)| y < x).count();
    let a_wins = a.iter().zip(b).filter(|(x, y)| x < y).count();
    let (q1, q3) = quartiles(a);
    let (ma, mb) = (median(a), median(b));
    let clear = (ma - mb).abs() > q3 - q1;
    let most = |wins: usize| pairs >= 10 && wins * 10 >= pairs * 9;
    let verdict = if most(b_wins) && clear && mb < ma {
        "gain"
    } else if most(a_wins) && clear && ma < mb {
        "regression"
    } else {
        "unresolved"
    };
    Verdict {
        median_a: ma,
        median_b: mb,
        quartiles_a: (q1, q3),
        quartiles_b: quartiles(b),
        b_wins,
        a_wins,
        pairs,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_of_ten_wins_and_a_gap_beyond_the_parents_iqr_is_a_gain() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let v = judge(&a, &b);
        assert_eq!((v.b_wins, v.a_wins, v.pairs), (10, 0, 10));
        assert_eq!(v.verdict, "gain");
        assert_eq!(judge(&b, &a).verdict, "regression");
    }

    #[test]
    fn wins_without_a_clear_gap_or_a_gap_without_wins_stay_unresolved() {
        // B always a hair lower, but well inside A's spread
        let a = [10.0, 12.0, 8.0, 11.0, 9.0, 10.5, 9.5, 11.5, 8.5, 10.0];
        let b: Vec<f64> = a.iter().map(|x| x - 0.01).collect();
        assert_eq!(judge(&a, &b).verdict, "unresolved");
        // B much lower in 8 of 10 pairs only
        let mut b: Vec<f64> = a.iter().map(|x| x * 0.5).collect();
        b[0] = 20.0;
        b[1] = 20.0;
        let v = judge(&a, &b);
        assert_eq!(v.b_wins, 8);
        assert_eq!(v.verdict, "unresolved");
        // fewer than ten pairs decide nothing
        assert_eq!(judge(&[10.0; 9], &[5.0; 9]).verdict, "unresolved");
        // ties count for neither side
        assert_eq!(judge(&a, &a).b_wins + judge(&a, &a).a_wins, 0);
    }
}
