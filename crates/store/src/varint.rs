//! Unsigned LEB128 varints for the store's small metadata — the
//! footer index and each chunk's section table — and the
//! [`CodecError`] every decoder in this crate reports. Event columns
//! use stream-vbyte ([`crate::svb`]), not this.

/// Decoding failure: truncated or over-long input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for std::io::Error {
    fn from(e: CodecError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Append `v` as an unsigned LEB128 varint.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an unsigned varint at `*pos`, advancing it.
pub fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let start = *pos;
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or_else(|| CodecError {
            offset: start,
            message: "truncated varint".into(),
        })?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(CodecError { offset: start, message: "varint overflows u64".into() });
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trip_boundaries() {
        let values = [0, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for &v in &values {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_u64(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn small_values_take_one_byte() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 100);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert!(get_u64(&buf, &mut pos).is_err());
    }

    #[test]
    fn overlong_varint_rejected() {
        let buf = [0xFFu8; 11];
        let mut pos = 0;
        assert!(get_u64(&buf, &mut pos).is_err());
    }
}
