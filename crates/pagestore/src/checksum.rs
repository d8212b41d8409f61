//! The workspace's one checksum: a dependency-free, word-at-a-time
//! 64-bit hash ([`hash64`]). It covers every byte boxagg persists or
//! transmits: the trailer at the end of every page, every WAL record
//! frame (`wal` module) and every `boxagg serve` protocol frame.
//!
//! ## The hash
//!
//! The input is read as little-endian `u64` words, 64 bytes (one word
//! per lane) at a time, into eight independent lanes. Each lane takes
//! one FNV-style step per word:
//!
//! ```text
//! h = rotl((h ^ w) * P, 32)        (P = the 64-bit FNV prime)
//! ```
//!
//! The eight lanes carry no dependency on each other, so a superscalar
//! core keeps eight multiplies in flight instead of one serial multiply
//! per byte. A tail shorter than 64 bytes is zero-padded into one last
//! block, so every byte goes through the same lane step. A fold seeded
//! with the input length then runs the same step over the eight lanes;
//! the length seed tells the zero padding apart from real zero bytes.
//!
//! The rotation is there because a multiply carries only upwards: with
//! `h = (h ^ w) * P` alone, bit 63 of the hash would be the XOR of bit
//! 63 of every word, and flipping the sign bit of two `f64`s anywhere
//! in a page would cancel out. Rotated, the top half lands where the
//! next multiply spreads it. What remains is the weakness of any single
//! multiply: a flip of bit 63 of one word is cancelled exactly by a flip
//! of bit 31 of the same lane's next word (64 bytes on), and a flip of
//! bit `63 - k` by its rotated partner with probability about `2^-k`. A
//! shift-xor in place of the rotation halves the hashing speed and only
//! moves this to three bits.
//!
//! ## What it detects
//!
//! **Every change confined to one aligned `u64` word is detected**,
//! whatever the change. Each lane step is a bijection: for a fixed
//! state, `w ↦ h ^ w` is one, multiplying by the odd `P` is one modulo
//! 2⁶⁴, and so is a rotation. So a different word yields a different
//! lane state; every later step, and every fold step, is a bijection of
//! that state for fixed other inputs, so the difference survives to the
//! output. A single flipped
//! bit, in the payload or in the stored trailer, is a special case.
//! Wider damage, such as a torn write that leaves half a new image over
//! half an old one, collides only by chance, apart from the top-bit
//! patterns described above.
//!
//! ## Layout
//!
//! The last [`TRAILER`] bytes of each page hold the checksum of the
//! preceding *payload* (little-endian `u64`); callers above the buffer
//! pool only ever see the payload
//! ([`BufferPool::payload_size`](crate::buffer::BufferPool::payload_size)
//! bytes). Because the trailer lives *inside* the fixed page size, the
//! byte-level I/O accounting of the paper's §6 experiments is unchanged:
//! a page read is a page read, checksummed or not.
//!
//! ## The zero mask
//!
//! Freshly allocated pages are all zeros — including their trailer. The
//! hash of the zero payload is nonzero, so the raw convention would
//! flag every fresh page as corrupt. Instead the stored trailer is
//! `hash64(payload) XOR hash64(zero_payload)`: the all-zero page then
//! carries the *correct* trailer (0) by construction, while any torn or
//! flipped payload still mismatches. The mask is a pure function of the
//! payload length and is computed once per pool.

/// Bytes reserved at the end of every page for the checksum trailer.
///
/// Reserved unconditionally — with checksums disabled the trailer is
/// still stamped but not verified — so the usable payload, and therefore
/// tree fan-out and page counts, never depend on the checksum setting.
pub const TRAILER: usize = 8;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;
const LANES: usize = 8;
const BLOCK: usize = LANES * 8;

/// One lane step; a bijection of `h` for fixed `w` and of `w` for
/// fixed `h`.
#[inline(always)]
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(PRIME).rotate_left(32)
}

#[inline(always)]
fn absorb(lanes: &mut [u64; LANES], block: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        *lane = step(*lane, u64::from_le_bytes(w));
    }
}

/// The 64-bit checksum of `bytes` (see the module docs).
// lint: hot-path
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| OFFSET ^ i as u64);
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        absorb(&mut lanes, block);
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; BLOCK];
        last[..tail.len()].copy_from_slice(tail);
        absorb(&mut lanes, &last);
    }
    lanes
        .iter()
        .fold(OFFSET ^ bytes.len() as u64, |h, &lane| step(h, lane))
}

/// The XOR mask making an all-zero page carry a valid (zero) trailer:
/// the hash of `payload_len` zero bytes.
pub fn zero_mask(payload_len: usize) -> u64 {
    hash64(&vec![0u8; payload_len])
}

/// Computes the trailer value for a page's payload.
pub fn trailer_for(payload: &[u8], zero_mask: u64) -> u64 {
    hash64(payload) ^ zero_mask
}

/// Writes the checksum trailer for `page`'s payload into its last
/// [`TRAILER`] bytes. `page.len()` must exceed `TRAILER`.
pub fn stamp(page: &mut [u8], zero_mask: u64) {
    let split = page.len() - TRAILER;
    let sum = trailer_for(&page[..split], zero_mask);
    page[split..].copy_from_slice(&sum.to_le_bytes());
}

/// Verifies `page`'s trailer against its payload. Returns
/// `Ok(())` on a match, otherwise `(stored, computed)`.
pub fn verify(page: &[u8], zero_mask: u64) -> std::result::Result<(), (u64, u64)> {
    let split = page.len() - TRAILER;
    let mut raw = [0u8; TRAILER];
    raw.copy_from_slice(&page[split..]);
    let stored = u64::from_le_bytes(raw);
    let computed = trailer_for(&page[..split], zero_mask);
    if stored == computed {
        Ok(())
    } else {
        Err((stored, computed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_common::rng::StdRng;

    const PAGE: usize = 8192;

    /// A deterministic, non-repeating byte pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + i / 251) as u8).collect()
    }

    fn stamped_page() -> (Vec<u8>, u64) {
        let mask = zero_mask(PAGE - TRAILER);
        let mut page = pattern(PAGE);
        stamp(&mut page, mask);
        (page, mask)
    }

    #[test]
    fn known_answer_vectors_are_frozen() {
        // The on-disk and wire format: a change here is a format change
        // and needs a superblock VERSION and PROTO_VERSION bump.
        let expected: [(usize, u64); 8] = [
            (0, 0x896f_962b_9a09_949d),
            (1, 0xd34c_0b9c_9d71_f811),
            (7, 0x2e79_1e0e_ddcc_3c29),
            (8, 0x3fee_5fce_567b_ae5f),
            (63, 0x62ea_eb0c_b6b2_2d08),
            (64, 0xb1c1_13f4_2b79_f97e),
            (65, 0x2aa0_ca19_46ab_53ba),
            (8184, 0x16af_7d86_5351_411a),
        ];
        for (len, want) in expected {
            let got = hash64(&pattern(len));
            assert_eq!(got, want, "len {len}: got {got:#018x}");
        }
    }

    #[test]
    fn zero_mask_matches_hash_of_zeros() {
        for len in [0usize, 1, 7, 56, 120, 8184] {
            assert_eq!(zero_mask(len), hash64(&vec![0u8; len]), "len {len}");
        }
    }

    #[test]
    fn all_zero_page_has_zero_trailer() {
        // 128 - 8 = 120 and 8192 - 8 = 8184: neither payload is a
        // multiple of the 64-byte block, so the zero padding is hit.
        for len in [128usize, PAGE] {
            let mut page = vec![0u8; len];
            let mask = zero_mask(len - TRAILER);
            stamp(&mut page, mask);
            assert!(page.iter().all(|&b| b == 0), "stamp of zeros is zeros");
            assert!(verify(&page, mask).is_ok());
        }
    }

    #[test]
    fn length_is_part_of_the_hash() {
        // Zero padding must not make a short input equal a longer one.
        let data = pattern(64);
        let mut seen = std::collections::HashSet::new();
        for len in 0..=64 {
            assert!(seen.insert(hash64(&data[..len])), "len {len} collided");
        }
        assert_ne!(hash64(&[0u8; 60]), hash64(&[0u8; 64]));
    }

    #[test]
    fn every_single_bit_flip_in_a_page_is_detected() {
        let (page, mask) = stamped_page();
        assert!(verify(&page, mask).is_ok());
        let mut torn = page.clone();
        for byte in 0..PAGE {
            for bit in 0..8 {
                torn[byte] ^= 1 << bit;
                assert!(
                    verify(&torn, mask).is_err(),
                    "flip of bit {bit} in byte {byte} went undetected"
                );
                torn[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn every_change_within_one_aligned_word_is_detected() {
        let (page, mask) = stamped_page();
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut torn = page.clone();
        for word in (0..PAGE).step_by(8) {
            let mut deltas = vec![u64::MAX, 1 << 63, (1 << 63) | (1 << 31)];
            deltas.extend((0..4).map(|_| rng.next_u64() | 1));
            for delta in deltas {
                let cell = &mut torn[word..word + 8];
                let mut w = [0u8; 8];
                w.copy_from_slice(cell);
                cell.copy_from_slice(&(u64::from_le_bytes(w) ^ delta).to_le_bytes());
                assert!(
                    verify(&torn, mask).is_err(),
                    "delta {delta:#x} at word offset {word} went undetected"
                );
                torn[word..word + 8].copy_from_slice(&page[word..word + 8]);
            }
        }
    }

    #[test]
    fn sign_flips_in_two_words_do_not_cancel() {
        let (page, mask) = stamped_page();
        for (a, b) in [(0usize, 8usize), (0, 64), (8, 8176), (4088, 4096)] {
            let mut torn = page.clone();
            torn[a + 7] ^= 0x80;
            torn[b + 7] ^= 0x80;
            assert!(verify(&torn, mask).is_err(), "words {a} and {b}");
        }
    }

    #[test]
    fn torn_page_is_detected() {
        let mask = zero_mask(PAGE - TRAILER);
        let mut old = pattern(PAGE);
        stamp(&mut old, mask);
        let mut new: Vec<u8> = old.iter().map(|b| b.wrapping_add(1)).collect();
        stamp(&mut new, mask);
        // Whole-sector tears at every 512-byte boundary: a prefix of the
        // new image over the rest of the old one, and the reverse.
        for cut in (512..PAGE).step_by(512) {
            let mut torn = new[..cut].to_vec();
            torn.extend_from_slice(&old[cut..]);
            assert!(verify(&torn, mask).is_err(), "new prefix to {cut}");
            let mut torn = old[..cut].to_vec();
            torn.extend_from_slice(&new[cut..]);
            assert!(verify(&torn, mask).is_err(), "old prefix to {cut}");
        }
    }

    #[test]
    fn trailer_depends_on_every_payload_position() {
        let mask = zero_mask(56);
        let base = vec![0u8; 64];
        let mut seen = std::collections::HashSet::new();
        for pos in 0..56 {
            let mut page = base.clone();
            page[pos] = 1;
            stamp(&mut page, mask);
            let mut raw = [0u8; TRAILER];
            raw.copy_from_slice(&page[56..]);
            assert!(
                seen.insert(u64::from_le_bytes(raw)),
                "position {pos} collided"
            );
        }
    }
}
