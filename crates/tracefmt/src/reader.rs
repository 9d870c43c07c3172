//! The decoder: validates and decodes a whole trace, returning
//! structured errors for every malformed input.

use std::path::Path;

use crate::record::{TraceOp, TraceRecord};
use crate::{checksum, varint, TraceError, HEADER_LEN, MAGIC, TAG_FOOTER, TAG_RECORD, VERSION};

/// A fully validated, decoded trace.
///
/// Decoding is eager: the constructor checks the magic, version, every
/// record's encoding, the footer count, and the record-section checksum
/// before returning, so a `TraceReader` in hand is a guarantee the
/// artifact is intact.
#[derive(Debug, Clone)]
pub struct TraceReader {
    seed: u64,
    version: u32,
    records: Vec<TraceRecord>,
}

impl TraceReader {
    /// Decodes and validates `data`.
    ///
    /// # Errors
    ///
    /// Returns the [`TraceError`] describing the first malformation:
    /// bad magic, unknown version, truncation (at any boundary), bad
    /// record tag or flags, varint overflow, count mismatch, checksum
    /// mismatch, or trailing garbage. Never panics.
    pub fn from_bytes(data: &[u8]) -> Result<Self, TraceError> {
        if data.len() < 8 {
            if !data.is_empty() && data[..data.len().min(8)] != MAGIC[..data.len().min(8)] {
                return Err(TraceError::BadMagic);
            }
            return Err(TraceError::Truncated("magic"));
        }
        if data[..8] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let Some(version_bytes) = data.get(8..12) else {
            return Err(TraceError::Truncated("version"));
        };
        let mut v4 = [0u8; 4];
        v4.copy_from_slice(version_bytes);
        let version = u32::from_le_bytes(v4);
        if version != VERSION {
            return Err(TraceError::UnknownVersion(version));
        }
        let Some(seed_bytes) = data.get(12..HEADER_LEN) else {
            return Err(TraceError::Truncated("seed"));
        };
        let mut s8 = [0u8; 8];
        s8.copy_from_slice(seed_bytes);
        let seed = u64::from_le_bytes(s8);

        let mut pos = HEADER_LEN;
        let mut records = Vec::new();
        let mut prev_addr: u64 = 0;
        let mut prev_at: u64 = 0;
        loop {
            let Some(&tag) = data.get(pos) else {
                return Err(TraceError::Truncated("record tag"));
            };
            pos += 1;
            match tag {
                TAG_RECORD => {
                    let Some(&flags) = data.get(pos) else {
                        return Err(TraceError::Truncated("record flags"));
                    };
                    pos += 1;
                    if flags & !0x01 != 0 {
                        return Err(TraceError::ReservedFlags(flags));
                    }
                    let op = if flags & 0x01 == 0 {
                        TraceOp::Read
                    } else {
                        TraceOp::Write
                    };
                    let stream = varint::get_u64(data, &mut pos, "stream id")?;
                    let stream =
                        u32::try_from(stream).map_err(|_| TraceError::StreamTooLarge(stream))?;
                    let d_addr = varint::get_i64(data, &mut pos, "addr delta")?;
                    let d_at = varint::get_i64(data, &mut pos, "cycle delta")?;
                    prev_addr = prev_addr.wrapping_add(d_addr as u64);
                    prev_at = prev_at.wrapping_add(d_at as u64);
                    records.push(TraceRecord {
                        addr: prev_addr,
                        op,
                        stream,
                        at: prev_at,
                    });
                }
                TAG_FOOTER => {
                    let body_end = pos - 1;
                    let count = varint::get_u64(data, &mut pos, "footer count")?;
                    if count != records.len() as u64 {
                        return Err(TraceError::CountMismatch {
                            expected: count,
                            found: records.len() as u64,
                        });
                    }
                    let Some(sum_bytes) = data.get(pos..pos + 8) else {
                        return Err(TraceError::Truncated("footer checksum"));
                    };
                    let mut c8 = [0u8; 8];
                    c8.copy_from_slice(sum_bytes);
                    let expected = u64::from_le_bytes(c8);
                    pos += 8;
                    let found = checksum(&data[HEADER_LEN..body_end]);
                    if expected != found {
                        return Err(TraceError::ChecksumMismatch { expected, found });
                    }
                    if pos != data.len() {
                        return Err(TraceError::TrailingBytes(data.len() - pos));
                    }
                    return Ok(TraceReader {
                        seed,
                        version,
                        records,
                    });
                }
                other => return Err(TraceError::BadTag(other)),
            }
        }
    }

    /// Reads and decodes the trace at `path`.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be read, otherwise any
    /// decode error from [`TraceReader::from_bytes`].
    pub fn from_path(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let data =
            std::fs::read(path).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
        TraceReader::from_bytes(&data)
    }

    /// The generator seed recorded in the header.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The format version of the decoded file.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The decoded records, in recording order.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceWriter;

    fn sample() -> Vec<u8> {
        let mut w = TraceWriter::new(0xABCD);
        w.extend(&[
            TraceRecord::new(0x1000, TraceOp::Read, 0, 5),
            TraceRecord::new(0x1040, TraceOp::Write, 1, 6),
            TraceRecord::new(0x0800, TraceOp::Read, 2, 6),
        ]);
        w.finish()
    }

    #[test]
    fn decodes_what_the_writer_encodes() {
        let r = TraceReader::from_bytes(&sample()).expect("valid");
        assert_eq!(r.seed(), 0xABCD);
        assert_eq!(r.version(), VERSION);
        let recs = r.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0], TraceRecord::new(0x1000, TraceOp::Read, 0, 5));
        assert_eq!(recs[1], TraceRecord::new(0x1040, TraceOp::Write, 1, 6));
        assert_eq!(recs[2], TraceRecord::new(0x0800, TraceOp::Read, 2, 6));
    }

    #[test]
    fn wrapping_deltas_round_trip() {
        let mut w = TraceWriter::new(0);
        let recs = [
            TraceRecord::new(u64::MAX, TraceOp::Write, 0, 0),
            TraceRecord::new(0, TraceOp::Read, 0, u64::MAX),
            TraceRecord::new(u64::MAX / 2, TraceOp::Read, u32::MAX, 1),
        ];
        w.extend(&recs);
        let r = TraceReader::from_bytes(&w.finish()).expect("valid");
        assert_eq!(r.records(), &recs);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = TraceReader::from_path("/nonexistent-dir/absent.trace").expect_err("io");
        assert!(matches!(err, TraceError::Io(_)));
    }
}
