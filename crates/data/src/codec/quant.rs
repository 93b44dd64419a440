//! Quantization tables (JPEG Annex K luminance table, quality-scaled).

/// The standard JPEG luminance quantization table (zigzag-free, row-major).
const BASE_TABLE: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55, 14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62, 18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113,
    92, 49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
];

/// Scale the base table by `quality` in `[1, 100]` using the IJG mapping:
/// `q < 50 → 5000/q`, `q >= 50 → 200 - 2q` (percent).
pub fn scaled_table(quality: u8) -> [f32; 64] {
    let q = quality.clamp(1, 100) as f32;
    let scale = if q < 50.0 {
        5000.0 / q
    } else {
        200.0 - 2.0 * q
    };
    let mut t = [0.0f32; 64];
    for i in 0..64 {
        let v = (BASE_TABLE[i] as f32 * scale / 100.0).round();
        t[i] = v.clamp(1.0, 255.0);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_50_is_the_base_table() {
        let t = scaled_table(50);
        for i in 0..64 {
            assert_eq!(t[i], BASE_TABLE[i] as f32);
        }
    }

    #[test]
    fn higher_quality_means_finer_quantization() {
        let q90 = scaled_table(90);
        let q10 = scaled_table(10);
        assert!(q90[10] < q10[10]);
        // Quality 100 clamps to all-ones minimum.
        let q100 = scaled_table(100);
        assert!(q100.iter().all(|&v| v >= 1.0));
        assert_eq!(q100[0], 1.0);
    }

    #[test]
    fn table_entries_bounded() {
        for q in [1u8, 25, 50, 75, 100] {
            for &v in scaled_table(q).iter() {
                assert!((1.0..=255.0).contains(&v));
            }
        }
    }
}
