//! Median and quartile helpers, against values from Python's
//! `statistics.median` and `statistics.quantiles(xs, n=4)`.

use slipstream_benchmark::stats::{median, quartiles};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.5]), 7.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn quartiles_match_python_exclusive_method() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.5, 9.0]), [1.25, 3.0, 6.5]);
    // Two samples: Python extrapolates beyond them.
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert_eq!(quartiles(&[5.0]), [5.0; 3]);
}
