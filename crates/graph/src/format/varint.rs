//! LEB128 varints and length-prefixed strings for the d5nx format.

use deep500_tensor::{Error, Result};

/// Append `v` as an unsigned LEB128 varint.
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

/// Read an unsigned LEB128 varint at `*pos`, advancing it.
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut result = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| Error::Format("truncated varint".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(Error::Format("varint overflows u64".into()));
        }
        result |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
    }
}

/// Read the count of a sequence whose items follow it. Every item takes at
/// least one byte, so a count beyond the bytes that remain is malformed —
/// and is refused here, before anyone allocates for it.
pub fn read_count(buf: &[u8], pos: &mut usize) -> Result<usize> {
    let n = read_u64(buf, pos)?;
    match usize::try_from(n) {
        Ok(n) if n <= buf.len() - *pos => Ok(n),
        _ => Err(Error::Format(format!(
            "count {n} exceeds the {} bytes that remain",
            buf.len() - *pos
        ))),
    }
}

/// ZigZag-encode a signed integer so small magnitudes stay small.
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a length-prefixed UTF-8 string.
pub fn write_string(buf: &mut Vec<u8>, s: &str) {
    write_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Read a length-prefixed UTF-8 string at `*pos`, advancing it.
pub fn read_string(buf: &[u8], pos: &mut usize) -> Result<String> {
    let len = read_u64(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .ok_or_else(|| Error::Format("string length overflow".into()))?;
    if end > buf.len() {
        return Err(Error::Format("truncated string".into()));
    }
    let s = std::str::from_utf8(&buf[*pos..end])
        .map_err(|e| Error::Format(format!("invalid UTF-8: {e}")))?
        .to_string();
    *pos = end;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_sizes() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_u64(&mut buf, 128);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn truncated_varint_errors() {
        let mut pos = 0;
        assert!(read_u64(&[0x80], &mut pos).is_err());
        let mut pos = 0;
        assert!(read_u64(&[], &mut pos).is_err());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, -12345, 12345] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        // Small magnitudes encode small.
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    #[test]
    fn string_roundtrip() {
        let mut buf = Vec::new();
        write_string(&mut buf, "héllo");
        write_string(&mut buf, "");
        let mut pos = 0;
        assert_eq!(read_string(&buf, &mut pos).unwrap(), "héllo");
        assert_eq!(read_string(&buf, &mut pos).unwrap(), "");
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut pos = 0;
        assert!(read_string(&buf, &mut pos).is_err());
    }
}
