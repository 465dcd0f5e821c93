//! CRC-32 (IEEE 802.3), implemented from scratch with a lazily-built
//! lookup table. Frames carry a CRC so the player can detect corruption
//! caused by unsafe adaptation (wrong-cipher decodes) independently of the
//! codec error paths.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

fn table() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[i] = crc;
        i += 1;
    }
    t
}

/// Computes the CRC-32 of `data` (IEEE, reflected, init/final `0xFFFFFFFF`).
pub(crate) fn crc32(data: &[u8]) -> u32 {
    // The table is tiny; rebuilding per call would be wasteful, so cache it.
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let t = TABLE.get_or_init(table);
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ t[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the server has to be blocked until the last packet".to_vec();
        let reference = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn deterministic() {
        let d = vec![7u8; 1000];
        assert_eq!(crc32(&d), crc32(&d));
    }
}
