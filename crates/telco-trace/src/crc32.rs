//! CRC-32 (IEEE 802.3, polynomial 0xEDB88320) — the checksum guarding the
//! trace format's chunk frames and trailer and every snapshot frame.
//! Table-driven and dependency-free: the build environment vendors no
//! checksum crate, and the codec only needs integrity detection, not
//! cryptographic strength.
//!
//! The kernel is a *slice-by-16*: sixteen const-built 256-entry tables
//! let one loop iteration fold 16 input bytes into the running state with
//! sixteen independent table lookups and a xor tree, instead of the
//! classic one-lookup-per-byte Sarwate loop. The lookups of one iteration
//! have no serial dependency on each other (only iteration-to-iteration
//! through `crc`), so the CPU pipelines them; on commodity hardware this
//! is worth roughly an order of magnitude over the per-byte loop. Same
//! polynomial, same bit order and the same checksums as the per-byte loop,
//! which the tests keep as the reference.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per unrolled iteration.
const SLICE: usize = 16;

/// `TABLES[0]` is the classic Sarwate table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, which is what lets lane `k` of a
/// 16-byte block be looked up independently of the other lanes.
const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICE] = build_tables();

#[inline]
fn step_byte(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
}

/// Fold one 16-byte block into the state: the first four bytes are xored
/// into the running CRC (little-endian, matching the reflected bit
/// order), then all sixteen lanes are looked up independently.
#[inline]
fn step_block(crc: u32, block: &[u8; SLICE]) -> u32 {
    let lo = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
    TABLES[15][(lo & 0xFF) as usize]
        ^ TABLES[14][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[13][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[12][(lo >> 24) as usize]
        ^ TABLES[11][block[4] as usize]
        ^ TABLES[10][block[5] as usize]
        ^ TABLES[9][block[6] as usize]
        ^ TABLES[8][block[7] as usize]
        ^ TABLES[7][block[8] as usize]
        ^ TABLES[6][block[9] as usize]
        ^ TABLES[5][block[10] as usize]
        ^ TABLES[4][block[11] as usize]
        ^ TABLES[3][block[12] as usize]
        ^ TABLES[2][block[13] as usize]
        ^ TABLES[1][block[14] as usize]
        ^ TABLES[0][block[15] as usize]
}

/// Streaming CRC-32 hasher: feed bytes incrementally, then
/// [`Crc32::finish`]. The writer uses this to checksum a chunk payload
/// while encoding it, without a second pass.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(SLICE);
        for block in &mut blocks {
            // chunks_exact guarantees the length; the conversion cannot
            // fail, and the unwrap_or keeps the path panic-free anyway.
            let block: &[u8; SLICE] = block.try_into().unwrap_or(&[0; SLICE]);
            crc = step_block(crc, block);
        }
        for &b in blocks.remainder() {
            crc = step_byte(crc, b);
        }
        self.state = crc;
    }

    /// The checksum of everything absorbed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original per-byte Sarwate loop, kept as the reference the
    /// sliced kernel must match bit-for-bit on every input.
    fn crc32_per_byte(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = step_byte(crc, b);
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sliced_matches_per_byte_at_every_length() {
        // Lengths straddling the 16-byte block boundary are where a
        // slicing bug would hide: 0..=64 covers empty, sub-block, exact
        // multiples, and every remainder length.
        let data: Vec<u8> =
            (0u32..64).map(|i| (i.wrapping_mul(131).wrapping_add(7)) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), crc32_per_byte(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn streaming_equals_one_shot_at_odd_split_points() {
        let data: Vec<u8> = (0u32..1000).map(|i| (i * 17 + 3) as u8).collect();
        let reference = crc32(&data);
        for split in [1usize, 7, 15, 16, 17, 33, 999] {
            let mut h = Crc32::new();
            for part in data.chunks(split) {
                h.update(part);
            }
            assert_eq!(h.finish(), reference, "split {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0u32..256).map(|i| (i * 7) as u8).collect();
        let reference = crc32(&data);
        for byte in [0usize, 100, 255] {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), reference, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
