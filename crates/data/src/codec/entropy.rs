//! Entropy coding for D5J: zigzag scan + zero-run-length + varints.
//!
//! After quantization most high-frequency coefficients are zero; the
//! zigzag scan orders them so zeros cluster at the tail, and a
//! (run-of-zeros, value) code with LEB128/zigzag varints compresses them.
//! An explicit end-of-block marker skips trailing zeros entirely.

use deep500_tensor::{Error, Result};

/// Zigzag scan order of an 8×8 block (index into row-major coefficients).
const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// Append an unsigned LEB128 varint.
pub fn write_u64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read an unsigned LEB128 varint at `*pos`.
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut result = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| Error::Format("truncated varint".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(Error::Format("varint overflow".into()));
        }
        result |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
    }
}

fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// End-of-block marker (as a zero-run length that cannot occur: 64).
const EOB: u64 = 64;

/// Encode quantized coefficients (a whole plane: multiple of 64) into
/// (run, value) codes per block.
pub fn encode_coefficients(quantized: &[i16]) -> Vec<u8> {
    debug_assert_eq!(quantized.len() % 64, 0);
    let mut out = Vec::with_capacity(quantized.len() / 4);
    for block in quantized.chunks_exact(64) {
        // Zigzag-ordered view.
        let mut zz = [0i16; 64];
        for (i, &src) in ZIGZAG.iter().enumerate() {
            zz[i] = block[src];
        }
        // Find last nonzero.
        let last = zz.iter().rposition(|&v| v != 0);
        let mut i = 0usize;
        if let Some(last) = last {
            while i <= last {
                let mut run = 0u64;
                while i <= last && zz[i] == 0 {
                    run += 1;
                    i += 1;
                }
                // i <= last here implies zz[i] != 0.
                write_u64(&mut out, run);
                write_u64(&mut out, zigzag_encode(zz[i] as i64));
                i += 1;
            }
        }
        write_u64(&mut out, EOB);
    }
    out
}

/// Decode (run, value) codes back into `expected` coefficients (a whole
/// plane in row-major order).
pub fn decode_coefficients(bytes: &[u8], expected: usize) -> Result<Vec<i16>> {
    debug_assert_eq!(expected % 64, 0);
    let mut out = vec![0i16; expected];
    let mut pos = 0usize;
    for block in out.chunks_exact_mut(64) {
        let mut zz = [0i16; 64];
        let mut i = 0usize;
        loop {
            let run = read_u64(bytes, &mut pos)?;
            if run == EOB {
                break;
            }
            i += run as usize;
            if i >= 64 {
                return Err(Error::Format(format!("zero run overruns block: {i}")));
            }
            let v = zigzag_decode(read_u64(bytes, &mut pos)?);
            if !(-32768..=32767).contains(&v) {
                return Err(Error::Format(format!("coefficient {v} out of i16 range")));
            }
            zz[i] = v as i16;
            i += 1;
        }
        for (k, &dst) in ZIGZAG.iter().enumerate() {
            block[dst] = zz[k];
        }
    }
    if pos != bytes.len() {
        return Err(Error::Format(format!(
            "trailing garbage: {} bytes",
            bytes.len() - pos
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_table_is_a_permutation() {
        let mut seen = [false; 64];
        for &i in &ZIGZAG {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // First entries follow the JPEG zigzag.
        assert_eq!(&ZIGZAG[..6], &[0, 1, 8, 16, 9, 2]);
    }

    #[test]
    fn roundtrip_sparse_block() {
        let mut coeffs = vec![0i16; 64];
        coeffs[0] = 100;
        coeffs[1] = -5;
        coeffs[8] = 3;
        coeffs[63] = 1;
        let enc = encode_coefficients(&coeffs);
        let dec = decode_coefficients(&enc, 64).unwrap();
        assert_eq!(dec, coeffs);
    }

    #[test]
    fn roundtrip_all_zero_and_dense() {
        let zeros = vec![0i16; 128];
        let enc = encode_coefficients(&zeros);
        assert_eq!(enc.len(), 2, "EOB per block only");
        assert_eq!(decode_coefficients(&enc, 128).unwrap(), zeros);

        let dense: Vec<i16> = (0..64).map(|i| (i as i16) - 32).collect();
        let enc = encode_coefficients(&dense);
        assert_eq!(decode_coefficients(&enc, 64).unwrap(), dense);
    }

    #[test]
    fn sparse_blocks_compress() {
        let mut coeffs = vec![0i16; 64 * 16];
        for b in 0..16 {
            coeffs[b * 64] = 50; // DC only
        }
        let enc = encode_coefficients(&coeffs);
        assert!(enc.len() < 64, "16 DC-only blocks in {} bytes", enc.len());
    }

    #[test]
    fn malformed_input_rejected() {
        assert!(decode_coefficients(&[], 64).is_err());
        // Run that exceeds the block.
        let mut bad = Vec::new();
        write_u64(&mut bad, 63);
        write_u64(&mut bad, zigzag_encode(5));
        write_u64(&mut bad, 1); // another run past the end
        write_u64(&mut bad, zigzag_encode(1));
        assert!(decode_coefficients(&bad, 64).is_err());
        // Trailing garbage.
        let enc = encode_coefficients(&[0i16; 64]);
        let mut with_garbage = enc.clone();
        with_garbage.push(0);
        assert!(decode_coefficients(&with_garbage, 64).is_err());
    }
}
