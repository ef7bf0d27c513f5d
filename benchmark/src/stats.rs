//! Order statistics over repeated measurements.

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so spreads computed here and by
/// external tooling agree. A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let m = ld as i64 + 1;
    [1i64, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative for tiny samples: Python extrapolates there too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}
