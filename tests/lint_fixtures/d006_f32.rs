//! D006: single-precision statistics.

// Each line is flagged twice.
pub fn mean(xs: &[f32]) -> f32 {
    xs.iter().sum::<f32>() / xs.len() as f32
}
