//! Minimal self-describing binary codec for model persistence.
//!
//! Little-endian, length-prefixed; no external dependencies. Every value is
//! written through [`ByteWriter`] and read back through [`ByteReader`], which
//! validates bounds and yields typed errors instead of panicking on corrupt
//! input.

use crate::matrix::Matrix;

/// Magic header for the fixed-layout matrix frame (`FEXMATF1` era).
pub const MATRIX_FIXED_MAGIC: u64 = 0xFE_F1_0A_70_4D_A7_01_00;

/// FNV-1a 64 offset basis: the hash state before any byte.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64 hash from state `hash` (start at
/// [`FNV1A_OFFSET`]): hashing a message in pieces equals hashing it whole.
pub fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    fnv_fold(hash, 0x100_0000_01b3, bytes)
}

/// The store's content-address hash and the fixed-layout frame's payload
/// checksum, shared so blob keys and in-frame integrity agree byte for
/// byte. It is FNV-1a with the prime `0x1000_0000_01b3` in place of FNV's
/// `0x100_0000_01b3`; stored blobs, model files and the CLI's report
/// digests were all written with it, so it stays as it is.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv_fold(FNV1A_OFFSET, 0x1000_0000_01b3, bytes)
}

fn fnv_fold(mut hash: u64, prime: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(prime);
    }
    hash
}

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// A tag byte didn't match any known variant.
    BadTag(u8),
    /// A declared length is implausible for the remaining input.
    BadLength(u64),
    /// A magic/version header mismatch.
    BadHeader,
    /// Decoded parts disagree on a shape (e.g. weights against the
    /// architecture that declares them).
    ShapeMismatch,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::BadTag(t) => write!(f, "unknown tag byte {t:#x}"),
            CodecError::BadLength(n) => write!(f, "implausible length {n}"),
            CodecError::BadHeader => write!(f, "bad magic/version header"),
            CodecError::ShapeMismatch => write!(f, "shapes disagree with the declared layout"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte sink.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    pub fn write_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn write_f64_slice(&mut self, xs: &[f64]) {
        self.write_usize(xs.len());
        for &x in xs {
            self.write_f64(x);
        }
    }

    pub fn write_matrix(&mut self, m: &Matrix) {
        self.write_usize(m.rows());
        self.write_usize(m.cols());
        for &v in m.as_slice() {
            self.write_f64(v);
        }
    }

    pub fn write_matrices(&mut self, ms: &[Matrix]) {
        self.write_usize(ms.len());
        for m in ms {
            self.write_matrix(m);
        }
    }

    /// Fixed-layout frame: magic, rows, cols, payload FNV-1a (all u64 LE),
    /// then the row-major payload as raw f64 LE words. The payload region is
    /// a single contiguous `memcpy`-shaped block so a reader can lift it with
    /// one pass (and an mmap'd consumer could borrow it in place); the
    /// checksum makes truncation and bit flips detectable without decoding.
    pub fn write_matrix_fixed(&mut self, m: &Matrix) {
        let mut payload = Vec::with_capacity(m.as_slice().len() * 8);
        for &v in m.as_slice() {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        self.write_u64(MATRIX_FIXED_MAGIC);
        self.write_u64(m.rows() as u64);
        self.write_u64(m.cols() as u64);
        self.write_u64(fnv1a(&payload));
        self.buf.extend_from_slice(&payload);
    }

    pub fn write_matrices_fixed(&mut self, ms: &[Matrix]) {
        self.write_usize(ms.len());
        for m in ms {
            self.write_matrix_fixed(m);
        }
    }
}

/// Bounds-checked byte source.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let out = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    pub fn read_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn read_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    pub fn read_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.read_u64()?;
        // A length can never exceed the remaining input in any encoding we
        // produce (every element is at least one byte).
        if v > (self.remaining() as u64).saturating_add(8) && v > 1 << 32 {
            return Err(CodecError::BadLength(v));
        }
        Ok(v as usize)
    }

    pub fn read_f64(&mut self) -> Result<f64, CodecError> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    pub fn read_str(&mut self) -> Result<String, CodecError> {
        let len = self.read_usize()?;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError::BadHeader)
    }

    pub fn read_f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let len = self.read_usize()?;
        if len.saturating_mul(8) > self.remaining() {
            return Err(CodecError::BadLength(len as u64));
        }
        (0..len).map(|_| self.read_f64()).collect()
    }

    pub fn read_matrix(&mut self) -> Result<Matrix, CodecError> {
        let rows = self.read_usize()?;
        let cols = self.read_usize()?;
        let n = rows.saturating_mul(cols);
        if n.saturating_mul(8) > self.remaining() {
            return Err(CodecError::BadLength(n as u64));
        }
        let data: Result<Vec<f64>, _> = (0..n).map(|_| self.read_f64()).collect();
        Ok(Matrix::from_vec(rows, cols, data?))
    }

    pub fn read_matrices(&mut self) -> Result<Vec<Matrix>, CodecError> {
        let len = self.read_usize()?;
        if len > self.remaining() {
            return Err(CodecError::BadLength(len as u64));
        }
        (0..len).map(|_| self.read_matrix()).collect()
    }

    /// Counterpart of [`ByteWriter::write_matrix_fixed`]. Verifies the magic
    /// and the payload checksum, then lifts the payload in one bulk pass
    /// (`chunks_exact` over the contiguous f64 LE block — a single memcpy on
    /// little-endian targets).
    pub fn read_matrix_fixed(&mut self) -> Result<Matrix, CodecError> {
        if self.read_u64()? != MATRIX_FIXED_MAGIC {
            return Err(CodecError::BadHeader);
        }
        let rows = self.read_u64()?;
        let cols = self.read_u64()?;
        let n = rows.saturating_mul(cols);
        if n.saturating_mul(8) > self.remaining() as u64 {
            return Err(CodecError::BadLength(n));
        }
        let want = self.read_u64()?;
        let payload = self.take(n as usize * 8)?;
        if fnv1a(payload) != want {
            return Err(CodecError::BadHeader);
        }
        let data: Vec<f64> = payload
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        Ok(Matrix::from_vec(rows as usize, cols as usize, data))
    }

    pub fn read_matrices_fixed(&mut self) -> Result<Vec<Matrix>, CodecError> {
        let len = self.read_usize()?;
        if len > self.remaining() {
            return Err(CodecError::BadLength(len as u64));
        }
        (0..len).map(|_| self.read_matrix_fixed()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn fnv1a_extend_is_fnv1a_in_pieces() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_extend(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_extend(FNV1A_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        let msg = b"fexiot detections digest";
        let (a, b) = msg.split_at(7);
        let whole = fnv1a_extend(FNV1A_OFFSET, msg);
        assert_eq!(fnv1a_extend(fnv1a_extend(FNV1A_OFFSET, a), b), whole);
        // The store hash keeps its own prime: keys on disk depend on it.
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = ByteWriter::new();
        w.write_u8(7);
        w.write_u64(u64::MAX - 3);
        w.write_f64(-1.5e300);
        w.write_str("hello fexiot");
        w.write_f64_slice(&[1.0, 2.0, 3.5]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.read_f64().unwrap(), -1.5e300);
        assert_eq!(r.read_str().unwrap(), "hello fexiot");
        assert_eq!(r.read_f64_vec().unwrap(), vec![1.0, 2.0, 3.5]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn matrices_roundtrip() {
        let mut rng = Rng::seed_from_u64(1);
        let ms = vec![
            Matrix::random_normal(3, 4, 0.0, 1.0, &mut rng),
            Matrix::zeros(1, 7),
            Matrix::eye(5),
        ];
        let mut w = ByteWriter::new();
        w.write_matrices(&ms);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = r.read_matrices().unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in ms.iter().zip(&back) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let mut w = ByteWriter::new();
        w.write_matrix(&Matrix::ones(4, 4));
        let bytes = w.into_bytes();
        for cut in [0, 1, 8, 17, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(r.read_matrix().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn hostile_length_rejected() {
        let mut w = ByteWriter::new();
        w.write_u64(u64::MAX / 2); // absurd rows
        w.write_u64(u64::MAX / 2); // absurd cols
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.read_matrix(),
            Err(CodecError::BadLength(_)) | Err(CodecError::UnexpectedEof)
        ));
    }
}
