//! Unsigned LEB128 varints, the one integer codec of the stored node
//! columns and of the posting lists of `approxql-index` (inlinable into
//! the decode loops of either).

/// Why a varint did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// The input ends inside the varint.
    RunsPast,
    /// The varint spells a value above `u64::MAX`.
    Overlong,
}

/// Appends `v` as an unsigned LEB128 varint: seven bits per byte, low
/// bits first, the top bit set on every byte but the last.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// Reads the varint at `*pos` and moves `pos` past it.
#[inline]
pub fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = data.get(*pos) else {
            return Err(VarintError::RunsPast);
        };
        *pos += 1;
        if shift == 63 && b & 0x7e != 0 {
            return Err(VarintError::Overlong);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(VarintError::Overlong);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_roundtrip() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn damaged_varints_are_typed_errors() {
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80], &mut pos), Err(VarintError::RunsPast));
        let mut pos = 0;
        let eleven = [0xff; 11];
        assert_eq!(read_varint(&eleven, &mut pos), Err(VarintError::Overlong));
        // The tenth byte may only carry bit 63.
        let mut too_wide = vec![0xff; 9];
        too_wide.push(0x02);
        let mut pos = 0;
        assert_eq!(read_varint(&too_wide, &mut pos), Err(VarintError::Overlong));
    }
}
