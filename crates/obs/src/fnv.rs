//! FNV-1a (64-bit), the hash behind every fingerprint and pinned text
//! constant of the workspace, and [`Piece`]: a constant string FNV-1a
//! absorbs in one step.
//!
//! One byte is `h' = (h ^ b)·P`. `h ^ b` differs from `h` only in the low
//! byte, so `h ^ b = h + d` with `d` a function of `(h & 0xff, b)` alone;
//! and `P ≡ 0xb3 (mod 256)`, so the low byte of `h'` is a function of the
//! low byte of `h` alone. By induction, absorbing a constant `s` of `n`
//! bytes from any `h` gives `h·Pⁿ + T_s[h & 0xff]`, where `T_s[l]` is what
//! the bytes add from the state `l`: one multiply and one load in place of
//! `n` dependent multiplies.

const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// A running FNV-1a hash, its state in the open: `Fnv1a::new().write(a)
/// .write(b)` hashes the bytes of `a` and then those of `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// The hash of nothing (the offset basis).
    pub const fn new() -> Self {
        Fnv1a(BASIS)
    }

    /// Absorbs `bytes`, one multiply each.
    #[must_use]
    pub fn write(self, bytes: impl AsRef<[u8]>) -> Self {
        Fnv1a(bytes.as_ref().iter().fold(self.0, |h, &b| step(h, b)))
    }

    /// The hash value.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// Absorbs `piece`'s text in one step.
    pub(crate) fn absorb(self, piece: &Piece) -> Self {
        let h = self.0;
        Fnv1a(h.wrapping_mul(piece.pow).wrapping_add(piece.jump[usize::from(h as u8)]))
    }
}

/// FNV-1a of `bytes`.
pub fn fnv1a(bytes: impl AsRef<[u8]>) -> u64 {
    Fnv1a::new().write(bytes).finish()
}

const fn step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(PRIME)
}

/// A constant string and its jump table (see the module doc): what
/// absorbing it adds to `h·Pⁿ`, for each low byte of `h`.
#[derive(Debug)]
pub(crate) struct Piece {
    pub(crate) text: &'static str,
    /// `Pⁿ` for the text's `n` bytes.
    pow: u64,
    jump: [u64; 256],
}

impl Piece {
    /// Built at compile time: a `static` of this type costs 2 KB of tables
    /// and nothing at run time.
    pub(crate) const fn new(text: &'static str) -> Self {
        let bytes = text.as_bytes();
        let mut pow = 1u64;
        let mut i = 0;
        while i < bytes.len() {
            pow = pow.wrapping_mul(PRIME);
            i += 1;
        }
        let mut jump = [0u64; 256];
        let mut low = 0;
        while low < 256 {
            let mut h = low as u64;
            let mut i = 0;
            while i < bytes.len() {
                h = step(h, bytes[i]);
                i += 1;
            }
            jump[low] = h.wrapping_sub((low as u64).wrapping_mul(pow));
            low += 1;
        }
        Piece { text, pow, jump }
    }
}
