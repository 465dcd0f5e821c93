//! Component universes and configuration bit vectors.

use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::Arc;

/// A component identity: a dense index into a [`Universe`].
///
/// The paper names components `E1`, `E2`, `D1`…`D5`; ids keep configurations
/// as cheap bitsets instead of string sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompId(pub(crate) u32);

impl CompId {
    /// Dense index of the component within its universe.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index (for table-driven tests).
    pub const fn from_index(ix: usize) -> Self {
        CompId(ix as u32)
    }
}

/// Interns component names to [`CompId`]s.
///
/// Registration order defines bit positions in [`Config`] bit strings, so the
/// case-study module registers `E1, E2, D1, D2, D3, D4, D5` to reproduce the
/// paper's `(D5,D4,D3,D2,D1,E2,E1)` vectors exactly.
///
/// One name arena: every name back to back in one string, and an
/// open-addressed table of ids probed from the name's keyed hash (std's
/// SipHash under this universe's own `RandomState`). A name costs its
/// bytes, four bytes of end offset and at least eight of table — no heap
/// object of its own. The table is never iterated, so ids are registration
/// order whatever the keys.
#[derive(Debug, Clone, Default)]
pub struct Universe {
    /// Every name, back to back, in registration order.
    text: String,
    /// Where each name ends in `text`; it starts where the one before ends.
    ends: Vec<u32>,
    /// Linear probing from the name's hash: `id + 1` in an occupied slot,
    /// 0 in a free one. Empty, or a power of two at least twice `len()`.
    slots: Vec<u32>,
    keys: RandomState,
}

impl Universe {
    /// An empty universe.
    pub fn new() -> Self {
        Universe::default()
    }

    /// An empty universe with room for `capacity` components, so bulk
    /// builders (the fleet world generator interns `2·groups` names up
    /// front) never rehash mid-construction.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = if capacity == 0 { 0 } else { (2 * capacity).next_power_of_two() };
        let ends = Vec::with_capacity(capacity);
        Universe { ends, slots: vec![0; slots], ..Universe::default() }
    }

    /// Interns `name`, returning the existing id if already present.
    ///
    /// Hashes once: a repeated name — every identifier of an invariant
    /// text over declared components — costs one probe and no heap
    /// traffic; a fresh one appends its bytes and fills the free slot that
    /// probe ended on.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` components or 4 GiB of names.
    pub fn intern(&mut self, name: &str) -> CompId {
        let hash = self.keys.hash_one(name);
        let mut free = match self.find(hash, name) {
            Ok(id) => return id,
            Err(free) => free,
        };
        let id = u32::try_from(self.len() + 1).expect("component ids are u32") - 1;
        let end = u32::try_from(self.text.len() + name.len()).expect("names fit in 4 GiB");
        if 2 * self.ends.len() + 2 > self.slots.len() {
            self.grow();
            free = self.find(hash, name).expect_err("a fresh name");
        }
        self.text.push_str(name);
        self.ends.push(end);
        self.slots[free] = id + 1;
        CompId(id)
    }

    /// Where `name`, hashing to `hash`, is registered: its id, or the free
    /// slot its probe ended on (slot 0 of an empty table, which has none).
    #[inline]
    fn find(&self, hash: u64, name: &str) -> Result<CompId, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut ix = hash as usize & mask;
        loop {
            match self.slots[ix] {
                0 => return Err(ix),
                taken if self.name(CompId(taken - 1)) == name => return Ok(CompId(taken - 1)),
                _ => ix = (ix + 1) & mask,
            }
        }
    }

    /// Doubles the table (to four slots at least) and places every id again
    /// from its name's hash.
    fn grow(&mut self) {
        self.slots = vec![0; (2 * self.slots.len()).max(4)];
        for id in 0..self.ends.len() as u32 {
            let name = self.name(CompId(id));
            let free = self.find(self.keys.hash_one(name), name).expect_err("names are distinct");
            self.slots[free] = id + 1;
        }
    }

    /// Looks a name up without interning.
    pub fn id(&self, name: &str) -> Option<CompId> {
        self.find(self.keys.hash_one(name), name).ok()
    }

    /// The name registered for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this universe.
    pub fn name(&self, id: CompId) -> &str {
        let ix = id.index();
        let start = if ix == 0 { 0 } else { self.ends[ix - 1] as usize };
        &self.text[start..self.ends[ix] as usize]
    }

    /// Number of registered components.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no components are registered.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates ids in registration order.
    pub fn iter(&self) -> impl Iterator<Item = CompId> + '_ {
        (0..self.ends.len() as u32).map(CompId)
    }

    /// An empty configuration sized for this universe.
    pub fn empty_config(&self) -> Config {
        Config::empty(self.len())
    }

    /// Builds a configuration from component names.
    ///
    /// # Panics
    ///
    /// Panics if any name is unknown.
    pub fn config_of(&self, names: &[&str]) -> Config {
        let id = |n: &&str| self.id(n).unwrap_or_else(|| panic!("unknown component {n:?}"));
        Config::from_ids(self.len(), names.iter().map(id))
    }

    /// Parses a paper-style bit string (most-significant component first,
    /// i.e. the *last* registered component is the leftmost bit).
    ///
    /// # Panics
    ///
    /// Panics if the string length differs from the universe size or
    /// contains characters other than `0`/`1`.
    pub fn config_from_bits(&self, bits: &str) -> Config {
        assert_eq!(bits.len(), self.len(), "bit string width mismatch");
        Config::from_bit_string(bits).unwrap_or_else(|other| panic!("invalid bit {other:?}"))
    }
}

/// Words in one chunk of a wide configuration: 4 096 components, 512
/// bytes. One constant, not a knob — small enough that a session's delta
/// copies under a kilobyte of a 200 000-component world, large enough that
/// every planner universe stays below it and the spine of that world is 49
/// pointers.
const CHUNK_WORDS: usize = 64;
/// Components in one chunk, and the widest configuration kept flat.
const CHUNK_BITS: usize = CHUNK_WORDS * 64;

type Chunk = [u64; CHUNK_WORDS];

/// A system configuration: the set of components currently composed into the
/// running system (Section 3.1's bit vector).
///
/// Configurations are fixed-width bitsets; all set operations require both
/// operands to come from the same universe (same width).
///
/// Storage is shared copy-on-write, in one of two layouts chosen by the
/// width alone. Up to 4 096 components — every planner universe,
/// every plan-cache key, the case study — the words are one buffer:
/// `clone` bumps a reference count, and a mutator copies the buffer at most
/// once, and only when it really changes a bit of a buffer some other
/// configuration still reads. Past that the words live in chunks of 64
/// (`CHUNK_WORDS`) behind a shared spine of chunk pointers, and a mutator
/// copies the spine and the chunks it really changes. An adaptation
/// concerns its own collaborative set (§7) while the vector spans every
/// component, so the before- and after-configuration of a session differ
/// in a handful of bits: they share every chunk but the one or two those
/// bits fall in, and every record that merely *names* one of them shares
/// its spine.
///
/// `Arc` compares two handles on one allocation equal without reading it,
/// spine and chunk alike, so `==` between relatives reads the chunks that
/// differ and no others. The layout follows the width, so the derived
/// order — by layout first — is by width first, then by the words.
#[derive(Debug, Clone, Eq, PartialOrd, Ord)]
pub struct Config(Repr);

/// What deriving it compares, with the two layouts told apart once: the
/// plan cache probes a hash map keyed by configurations.
impl PartialEq for Config {
    #[inline]
    fn eq(&self, other: &Config) -> bool {
        match (&self.0, &other.0) {
            (Repr::Flat { nbits: n, words: a }, Repr::Flat { nbits: m, words: b }) => {
                n == m && a == b
            }
            (Repr::Chunked { nbits: n, spine: a }, Repr::Chunked { nbits: m, spine: b }) => {
                n == m && a == b
            }
            _ => false,
        }
    }
}

/// Bits past the width are zero in both layouts, in a chunked
/// configuration's last chunk as in a last word, so whole words and whole
/// chunks compare, count and combine without masking.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Repr {
    Flat { nbits: u32, words: Arc<[u64]> },
    Chunked { nbits: u32, spine: Arc<[Arc<Chunk>]> },
}

// Configurations cross threads inside the fleet's shared world and its
// per-region outcomes: an `Rc` here must fail the build, not a benchmark.
const _: fn() = || {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<Config>();
};

// Plan-cache keys and path steps hold handles by the thousand: the width
// rides inside each variant, beside the tag, so a handle stays three words.
const _: () = assert!(std::mem::size_of::<Config>() == 24);

/// Content hash — the width as a `usize`, then the words as one slice,
/// exactly what deriving it over `{ nbits: usize, words: [u64] }` wrote
/// when there was one layout.
impl Hash for Config {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        match &self.0 {
            Repr::Flat { nbits, words } => {
                (*nbits as usize).hash(state);
                words.hash(state);
            }
            Repr::Chunked { nbits, .. } => {
                (*nbits as usize).hash(state);
                (*nbits as usize).div_ceil(64).hash(state);
                self.runs().for_each(|run| u64::hash_slice(run, state));
            }
        }
    }
}

/// Word-indexed access to either layout, so the bit-level loops are written
/// once and compiled per layout: the layout is matched once per operation,
/// never per bit.
trait Words {
    fn word(&self, ix: usize) -> u64;
    /// Stores `word` at `ix`, copying no more than that store needs.
    fn put(&mut self, ix: usize, word: u64);
}

impl Words for [u64] {
    #[inline]
    fn word(&self, ix: usize) -> u64 {
        self[ix]
    }

    #[inline]
    fn put(&mut self, ix: usize, word: u64) {
        self[ix] = word;
    }
}

impl Words for [Arc<Chunk>] {
    #[inline]
    fn word(&self, ix: usize) -> u64 {
        self[ix / CHUNK_WORDS][ix % CHUNK_WORDS]
    }

    /// A chunk some other configuration still reads is copied only when
    /// the word really changes.
    fn put(&mut self, ix: usize, word: u64) {
        let chunk = &mut self[ix / CHUNK_WORDS];
        if chunk[ix % CHUNK_WORDS] != word {
            Arc::make_mut(chunk)[ix % CHUNK_WORDS] = word;
        }
    }
}

/// Word index and bit mask of `id`, which must be below `nbits`.
fn slot(nbits: u32, id: CompId) -> (usize, u64) {
    let ix = id.index();
    assert!(ix < nbits as usize, "component {ix} out of range (width {nbits})");
    (ix / 64, 1 << (ix % 64))
}

/// The set bits of `words`, ascending, as components; `words[0]` is word
/// `first_word` of its configuration.
fn ones(words: &[u64], first_word: usize) -> impl Iterator<Item = CompId> + '_ {
    words.iter().enumerate().flat_map(move |(wix, &w)| {
        std::iter::successors((w != 0).then_some(w), |rest| {
            let rest = rest & (rest - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |rest| {
            CompId::from_index((first_word + wix) * 64 + rest.trailing_zeros() as usize)
        })
    })
}

/// Whether `id` is set; out of range is absent.
#[inline]
fn has<W: Words + ?Sized>(words: &W, nbits: u32, id: CompId) -> bool {
    let ix = id.index();
    ix < nbits as usize && words.word(ix / 64) & (1 << (ix % 64)) != 0
}

/// Whether removing `removes`, then adding `adds`, changes any bit.
fn delta_changes<W: Words + ?Sized>(
    words: &W,
    nbits: u32,
    removes: &[CompId],
    adds: &[CompId],
) -> bool {
    let bit = |c: CompId| {
        let (w, mask) = slot(nbits, c);
        words.word(w) & mask != 0
    };
    adds.iter().any(|&c| !bit(c)) || removes.iter().any(|&c| bit(c) && !adds.contains(&c))
}

/// Clears `removes`, then sets `adds`, in words already unshared.
fn write_delta<W: Words + ?Sized>(
    words: &mut W,
    nbits: u32,
    removes: &[CompId],
    adds: impl IntoIterator<Item = CompId>,
) {
    for &c in removes {
        let (w, mask) = slot(nbits, c);
        words.put(w, words.word(w) & !mask);
    }
    for c in adds {
        let (w, mask) = slot(nbits, c);
        words.put(w, words.word(w) | mask);
    }
}

impl Config {
    /// The empty configuration over `nbits` components: one buffer, or one
    /// zero chunk behind every slot of the spine.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` components, as [`Universe::intern`] does.
    pub fn empty(nbits: usize) -> Self {
        let width = Config::checked_width(nbits);
        Config(if nbits <= CHUNK_BITS {
            Repr::Flat { nbits: width, words: std::iter::repeat_n(0, nbits.div_ceil(64)).collect() }
        } else {
            let zero = Arc::new([0; CHUNK_WORDS]);
            let spine = std::iter::repeat_n(zero, nbits.div_ceil(CHUNK_BITS)).collect();
            Repr::Chunked { nbits: width, spine }
        })
    }

    /// `nbits` as a stored width; component ids are `u32`, so is this.
    fn checked_width(nbits: usize) -> u32 {
        u32::try_from(nbits).unwrap_or_else(|_| {
            panic!("configuration width {nbits} exceeds the {} components ids can name", u32::MAX)
        })
    }

    /// The configuration over `nbits` components holding exactly `ids`
    /// (repeats are fine). The way to build a configuration from scratch:
    /// one buffer, written in one pass, where [`Config::insert`] in a loop
    /// re-checks the buffer's uniqueness for every bit.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range for `nbits`.
    pub fn from_ids(nbits: usize, ids: impl IntoIterator<Item = CompId>) -> Self {
        let mut cfg = Config::empty(nbits);
        match &mut cfg.0 {
            Repr::Flat { nbits, words } => write_delta(Arc::make_mut(words), *nbits, &[], ids),
            Repr::Chunked { nbits, spine } => write_delta(Arc::make_mut(spine), *nbits, &[], ids),
        }
        cfg
    }

    /// Parses what [`Config::to_bit_string`] renders — one `0` or `1` per
    /// component, last component first; the width is the string's length.
    /// Any other character is handed back as the error.
    ///
    /// # Panics
    ///
    /// Panics on a string of more than `u32::MAX` digits, before reading it.
    pub fn from_bit_string(bits: &str) -> Result<Self, char> {
        // All ASCII when valid, so the byte length is the bit width.
        let nbits = Config::checked_width(bits.len());
        // One pass, a word at a time: the string's last 64 digits are word
        // 0. `b ^ b'0'` is 0 or 1 for a digit and has a higher bit set for
        // any other byte, so validity is one OR, tested at the end. Eight
        // digits go at once: XOR the eight bytes, OR their high bits into
        // `bad`, and one multiply gathers the eight low bits into the top
        // byte, the first digit highest (the partial products never
        // overlap, so nothing carries).
        const ZEROS: u64 = 0x3030_3030_3030_3030;
        const LOW_BITS: u64 = 0x0101_0101_0101_0101;
        const GATHER: u64 = 0x8040_2010_0804_0201;
        let mut bad = 0u64;
        let mut word_of = |digits: &[u8]| {
            let (head, eights) = digits.split_at(digits.len() % 8);
            let word = head.iter().fold(0u64, |word, &b| {
                let bit = b ^ b'0';
                bad |= u64::from(bit & !1);
                word << 1 | u64::from(bit)
            });
            eights.chunks_exact(8).fold(word, |word, eight| {
                let bits = u64::from_le_bytes(eight.try_into().expect("eight digits")) ^ ZEROS;
                bad |= bits & !LOW_BITS;
                word << 8 | bits.wrapping_mul(GATHER) >> 56
            })
        };
        let digits = bits.as_bytes();
        let repr = if digits.len() <= CHUNK_BITS {
            Repr::Flat { nbits, words: digits.rchunks(64).map(word_of).collect() }
        } else {
            let chunk_of = |digits: &[u8]| {
                let mut chunk = [0; CHUNK_WORDS];
                for (word, digits) in chunk.iter_mut().zip(digits.rchunks(64)) {
                    *word = word_of(digits);
                }
                Arc::new(chunk)
            };
            Repr::Chunked { nbits, spine: digits.rchunks(CHUNK_BITS).map(chunk_of).collect() }
        };
        if bad != 0 {
            let other = bits.chars().find(|ch| !matches!(ch, '0' | '1'));
            return Err(other.expect("some byte was neither digit"));
        }
        Ok(Config(repr))
    }

    /// Width (number of component slots, not set bits).
    pub fn width(&self) -> usize {
        match self.0 {
            Repr::Flat { nbits, .. } | Repr::Chunked { nbits, .. } => nbits as usize,
        }
    }

    /// The words as contiguous runs, in order: a flat configuration's one
    /// buffer, or chunk by chunk with the last cut to the width. Every run
    /// but the last is [`CHUNK_WORDS`] long.
    fn runs(&self) -> impl DoubleEndedIterator<Item = &[u64]> {
        let (flat, spine, nwords) = match &self.0 {
            Repr::Flat { words, .. } => (Some(&words[..]), &[][..], 0),
            Repr::Chunked { nbits, spine } => (None, &spine[..], (*nbits as usize).div_ceil(64)),
        };
        let chunks = spine.iter().enumerate();
        flat.into_iter().chain(
            chunks.map(move |(c, chunk)| &chunk[..CHUNK_WORDS.min(nwords - c * CHUNK_WORDS)]),
        )
    }

    /// Adds a component (no-op, and no copy, if present).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this configuration's width.
    pub fn insert(&mut self, id: CompId) {
        self.apply_delta(&[], &[id]);
    }

    /// Removes a component (no-op, and no copy, if absent).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this configuration's width.
    pub fn remove(&mut self, id: CompId) {
        self.apply_delta(&[id], &[]);
    }

    /// Removes every component of `removes`, then adds every component of
    /// `adds` (a component in both ends up present) — one adaptive action's
    /// effect, or one session's fold. Uniqueness of the buffer (or of the
    /// spine) is checked once for the whole delta instead of once per bit,
    /// and not at all when the delta changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range for this configuration's width.
    pub fn apply_delta(&mut self, removes: &[CompId], adds: &[CompId]) {
        let adds_iter = adds.iter().copied();
        match &mut self.0 {
            Repr::Flat { nbits, words } => {
                if delta_changes(&**words, *nbits, removes, adds) {
                    write_delta(Arc::make_mut(words), *nbits, removes, adds_iter);
                }
            }
            Repr::Chunked { nbits, spine } => {
                if delta_changes(&**spine, *nbits, removes, adds) {
                    write_delta(Arc::make_mut(spine), *nbits, removes, adds_iter);
                }
            }
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: CompId) -> bool {
        match &self.0 {
            Repr::Flat { nbits, words } => has(&**words, *nbits, id),
            Repr::Chunked { nbits, spine } => has(&**spine, *nbits, id),
        }
    }

    /// Number of components present.
    pub fn len(&self) -> usize {
        self.runs().map(|run| run.iter().map(|w| w.count_ones() as usize).sum::<usize>()).sum()
    }

    /// True when no components are present.
    pub fn is_empty(&self) -> bool {
        self.runs().all(|run| run.iter().all(|&w| w == 0))
    }

    /// Iterates present components in increasing id order. Walks the
    /// backing words with `trailing_zeros` — cost scales with the set bits
    /// (plus one probe per word), not with the width.
    pub fn iter(&self) -> impl Iterator<Item = CompId> + '_ {
        // One of the two halves is empty: the planner's per-expansion walk
        // over a flat configuration is the slice loop and nothing else.
        let (flat, spine): (&[u64], &[Arc<Chunk>]) = match &self.0 {
            Repr::Flat { words, .. } => (words, &[]),
            Repr::Chunked { spine, .. } => (&[], spine),
        };
        let chunks = spine.iter().enumerate();
        ones(flat, 0).chain(chunks.flat_map(|(c, chunk)| ones(&chunk[..], c * CHUNK_WORDS)))
    }

    /// Word `ix` of the bit vector, least-significant component first;
    /// `ix` must be below `width().div_ceil(64)`. What compiled invariant
    /// kernels evaluate against when [`Config::flat_words`] has no slice
    /// to give.
    #[inline]
    pub fn word(&self, ix: usize) -> u64 {
        match &self.0 {
            Repr::Flat { words, .. } => words[ix],
            Repr::Chunked { spine, .. } => spine.word(ix),
        }
    }

    /// Overwrites word `ix` (see [`Config::word`]) with `word`, copying
    /// storage some other configuration still reads only when the word
    /// really changes: the buffer of a flat configuration, the spine and
    /// the one chunk of a chunked one. What a search writes a discovered
    /// node's words back with.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is past the last word or `word` sets a bit past the
    /// width.
    pub fn set_word(&mut self, ix: usize, word: u64) {
        let nbits = self.width();
        // One past the highest bit `word` sets at `ix`.
        let top = (ix * 64 + 64).saturating_sub(word.leading_zeros() as usize);
        assert!(
            ix < nbits.div_ceil(64) && top <= nbits,
            "word {ix} ({word:#x}) out of range (width {nbits})"
        );
        match &mut self.0 {
            Repr::Flat { words, .. } => {
                if words[ix] != word {
                    Arc::make_mut(words)[ix] = word;
                }
            }
            Repr::Chunked { spine, .. } => {
                if spine.word(ix) != word {
                    Arc::make_mut(spine).put(ix, word);
                }
            }
        }
    }

    /// All the words as one slice, when the configuration is narrow enough
    /// to keep them in one: compiled invariant kernels then evaluate
    /// word-wise against it instead of probing [`Config::word`] through the
    /// spine.
    #[inline]
    pub fn flat_words(&self) -> Option<&[u64]> {
        match &self.0 {
            Repr::Flat { words, .. } => Some(words),
            Repr::Chunked { .. } => None,
        }
    }

    /// The components on which `self` and `other` disagree, ascending,
    /// without collecting them. Word-wise XOR walk over the chunks the two
    /// do not share: cost scales with the differing bits (plus one probe per
    /// word of those chunks), not with the width.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn diff<'a>(&'a self, other: &'a Config) -> impl Iterator<Item = CompId> + 'a {
        self.check_width(other);
        let runs = self.runs().zip(other.runs()).enumerate();
        runs.filter(|(_, (a, b))| !std::ptr::eq(*a, *b)).flat_map(|(rix, (a, b))| {
            a.iter().zip(b).enumerate().flat_map(move |(wix, (a, b))| {
                let wix = rix * CHUNK_WORDS + wix;
                std::iter::successors(Some(a ^ b).filter(|&w| w != 0), |w| {
                    Some(w & (w - 1)).filter(|&w| w != 0)
                })
                .map(move |w| CompId::from_index(wix * 64 + w.trailing_zeros() as usize))
            })
        })
    }

    /// [`Config::diff`], collected.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn diff_ids(&self, other: &Config) -> Vec<CompId> {
        self.diff(other).collect()
    }

    /// How many components `self` and `other` disagree on —
    /// `self.diff_ids(other).len()` without the list: the popcount of the
    /// word-wise XOR over the chunks the two do not share.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn distance(&self, other: &Config) -> usize {
        self.check_width(other);
        let differing = |(a, b): (&[u64], &[u64])| -> usize {
            a.iter().zip(b).map(|(a, b)| (a ^ b).count_ones() as usize).sum()
        };
        self.runs().zip(other.runs()).filter(|(a, b)| !std::ptr::eq(*a, *b)).map(differing).sum()
    }

    fn check_width(&self, other: &Config) {
        assert_eq!(self.width(), other.width(), "configuration width mismatch");
    }

    /// `op` of each word of `self` with the same word of `other`.
    fn zip_words(&self, other: &Config, op: impl Fn(u64, u64) -> u64) -> Config {
        self.check_width(other);
        Config(match (&self.0, &other.0) {
            (Repr::Flat { nbits, words: a }, Repr::Flat { words: b, .. }) => {
                let words = a.iter().zip(b.iter()).map(|(&a, &b)| op(a, b)).collect();
                Repr::Flat { nbits: *nbits, words }
            }
            (Repr::Chunked { nbits, spine: a }, Repr::Chunked { spine: b, .. }) => {
                let chunk = |(a, b): (&Arc<Chunk>, &Arc<Chunk>)| {
                    Arc::new(std::array::from_fn(|w| op(a[w], b[w])))
                };
                Repr::Chunked { nbits: *nbits, spine: a.iter().zip(b.iter()).map(chunk).collect() }
            }
            _ => unreachable!("one width, one layout"),
        })
    }

    /// Set union.
    pub fn union(&self, other: &Config) -> Config {
        self.zip_words(other, |a, b| a | b)
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Config) -> Config {
        self.zip_words(other, |a, b| a & b)
    }

    /// Set difference (`self \ other`).
    pub fn difference(&self, other: &Config) -> Config {
        self.zip_words(other, |a, b| a & !b)
    }

    /// True when every component of `self` is in `other`.
    pub fn is_subset(&self, other: &Config) -> bool {
        self.check_width(other);
        self.runs()
            .zip(other.runs())
            .all(|(a, b)| std::ptr::eq(a, b) || a.iter().zip(b).all(|(a, b)| a & !b == 0))
    }

    /// True when `self` and `other` share no component.
    pub fn is_disjoint(&self, other: &Config) -> bool {
        self.check_width(other);
        self.runs().zip(other.runs()).all(|(a, b)| a.iter().zip(b).all(|(a, b)| a & b == 0))
    }

    /// Renders the paper's bit-vector form: last-registered component first.
    ///
    /// With the case study's registration order `E1..D5`, this prints exactly
    /// Table 1's `(D5,D4,D3,D2,D1,E2,E1)` strings such as `0100101`.
    pub fn to_bit_string(&self) -> String {
        self.to_string()
    }

    /// Renders the member names, e.g. `{D4,D1,E1}`, using descending-id order
    /// to match the paper's tables.
    pub fn to_names(&self, u: &Universe) -> String {
        let mut parts: Vec<&str> = self.iter().map(|id| u.name(id)).collect();
        parts.reverse();
        format!("{{{}}}", parts.join(","))
    }
}

/// Every byte value as its eight binary digits, most significant first.
const BYTE_DIGITS: [[u8; 8]; 256] = {
    let mut table = [[b'0'; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut bit = 0;
        while bit < 8 {
            if byte & (0x80 >> bit) != 0 {
                table[byte][bit] = b'1';
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// The bit-vector form ([`Config::to_bit_string`]), written straight into
/// the formatter 64 digits at a time — journals and event streams render
/// two world-width configurations per session.
impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut digits = [0u8; 64];
        // Only the top word can be partial: skip the slots past the width.
        let mut skip = self.width().div_ceil(64) * 64 - self.width();
        for run in self.runs().rev() {
            for word in run.iter().rev() {
                for (out, byte) in digits.chunks_exact_mut(8).zip(word.to_be_bytes()) {
                    out.copy_from_slice(&BYTE_DIGITS[usize::from(byte)]);
                }
                f.write_str(std::str::from_utf8(&digits[skip..]).expect("ASCII digits"))?;
                skip = 0;
            }
        }
        Ok(())
    }
}

/// Storage probes for the tests that pin what a clone or a delta of a
/// [`Config`] costs. Not part of the configuration API.
pub mod oracle {
    use super::{Config, Repr};
    use std::sync::Arc;

    /// Whether `a` and `b` read the same storage (one is a clone of the
    /// other and neither has been changed since): the one buffer of a
    /// narrow configuration, the spine of a wide one. Equal configurations
    /// need not share storage.
    pub fn shares_storage(a: &Config, b: &Config) -> bool {
        match (&a.0, &b.0) {
            (Repr::Flat { words: a, .. }, Repr::Flat { words: b, .. }) => Arc::ptr_eq(a, b),
            (Repr::Chunked { spine: a, .. }, Repr::Chunked { spine: b, .. }) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// At how many chunk positions `a` and `b` read one allocation (a
    /// narrow configuration is one chunk). Relatives that no longer share
    /// a spine still share chunks.
    pub fn shared_chunks(a: &Config, b: &Config) -> usize {
        a.runs().zip(b.runs()).filter(|(a, b)| std::ptr::eq(*a, *b)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u7() -> Universe {
        let mut u = Universe::new();
        for n in ["E1", "E2", "D1", "D2", "D3", "D4", "D5"] {
            u.intern(n);
        }
        u
    }

    #[test]
    fn intern_is_idempotent() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let a2 = u.intern("A");
        assert_eq!(a, a2);
        assert_eq!(u.len(), 1);
        assert_eq!(u.name(a), "A");
        assert_eq!(u.id("A"), Some(a));
        assert_eq!(u.id("B"), None);
    }

    #[test]
    fn with_capacity_interns_like_new() {
        let mut a = Universe::new();
        let mut b = Universe::with_capacity(8);
        for n in ["A", "B", "A", "C"] {
            assert_eq!(a.intern(n), b.intern(n));
        }
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn words_expose_the_backing_bits() {
        let mut u = Universe::new();
        let ids: Vec<CompId> = (0..70).map(|i| u.intern(&format!("C{i}"))).collect();
        let mut c = u.empty_config();
        c.insert(ids[3]);
        c.insert(ids[65]);
        assert_eq!(c.flat_words(), Some(&[1u64 << 3, 1u64 << 1][..]));
        assert_eq!((c.word(0), c.word(1)), (1 << 3, 1 << 1));
        // One component past a chunk: no slice to give, the same words.
        let wide = Config::from_ids(CHUNK_BITS + 1, [ids[3], CompId::from_index(CHUNK_BITS)]);
        assert_eq!(wide.flat_words(), None);
        assert_eq!((wide.word(0), wide.word(1), wide.word(CHUNK_WORDS)), (1 << 3, 0, 1));
    }

    #[test]
    #[should_panic(expected = "configuration width 4294967296 exceeds")]
    fn a_width_past_u32_is_refused_by_name_before_anything_is_allocated() {
        let _ = Config::empty(u32::MAX as usize + 1);
    }

    #[test]
    fn paper_bit_vector_round_trips() {
        let u = u7();
        // Table 1 row 1: 0100101 = {D4, D1, E1}
        let cfg = u.config_from_bits("0100101");
        assert_eq!(cfg, u.config_of(&["D4", "D1", "E1"]));
        assert_eq!(cfg.to_bit_string(), "0100101");
        assert_eq!(cfg.to_names(&u), "{D4,D1,E1}");
        assert_eq!(cfg.len(), 3);
    }

    #[test]
    fn bit_strings_parse_back_or_name_the_offending_character() {
        let u = u7();
        let cfg = u.config_of(&["D5", "D3", "E2"]);
        assert_eq!(Config::from_bit_string(&cfg.to_bit_string()), Ok(cfg));
        assert_eq!(Config::from_bit_string(""), Ok(Config::empty(0)));
        assert_eq!(Config::from_bit_string("01x0"), Err('x'));
        assert_eq!(Config::from_bit_string("1é"), Err('é'));
    }

    /// Word-wise rendering and parsing against the per-bit definition, at
    /// the widths where a word boundary can go wrong.
    #[test]
    fn bit_strings_round_trip_at_word_boundaries() {
        for width in [0, 1, 63, 64, 65, 130] {
            for stride in [1, 2, 3, 7, 64] {
                let ids = (0..width).filter(|ix| ix % stride == 0 || ix + 1 == width);
                let cfg = Config::from_ids(width, ids.map(CompId::from_index));
                let per_bit: String = (0..width)
                    .rev()
                    .map(|ix| if cfg.contains(CompId::from_index(ix)) { '1' } else { '0' })
                    .collect();
                assert_eq!(cfg.to_bit_string(), per_bit, "width {width} stride {stride}");
                assert_eq!(format!("{cfg}"), per_bit);
                let back = Config::from_bit_string(&per_bit).expect("digits only");
                assert_eq!(back, cfg, "width {width} stride {stride}");
                assert_eq!(back.flat_words(), cfg.flat_words(), "no stray bit past the width");
            }
            // The error is the first offender in reading order, wherever
            // the word boundaries fall.
            if width >= 2 {
                let mut text = "1".repeat(width);
                text.replace_range(width - 1..width, "y");
                text.replace_range(0..1, "x");
                assert_eq!(Config::from_bit_string(&text), Err('x'), "width {width}");
            }
        }
        assert_eq!(Config::from_bit_string("2"), Err('2'));
        assert_eq!(Config::from_bit_string("0 "), Err(' '));
    }

    #[test]
    fn paper_target_vector() {
        let u = u7();
        let cfg = u.config_from_bits("1010010");
        assert_eq!(cfg, u.config_of(&["D5", "D3", "E2"]));
    }

    #[test]
    fn set_algebra() {
        let u = u7();
        let a = u.config_of(&["E1", "D1"]);
        let b = u.config_of(&["E1", "D2"]);
        assert_eq!(a.union(&b), u.config_of(&["E1", "D1", "D2"]));
        assert_eq!(a.intersection(&b), u.config_of(&["E1"]));
        assert_eq!(a.difference(&b), u.config_of(&["D1"]));
        assert!(u.config_of(&["E1"]).is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.is_disjoint(&u.config_of(&["D5"])));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn insert_remove_contains() {
        let u = u7();
        let mut c = u.empty_config();
        let d5 = u.id("D5").unwrap();
        assert!(!c.contains(d5));
        c.insert(d5);
        assert!(c.contains(d5));
        c.remove(d5);
        assert!(!c.contains(d5) && c.is_empty());
    }

    #[test]
    fn clones_share_storage_until_a_bit_really_changes() {
        let u = u7();
        let (e1, d1, d5) = (u.id("E1").unwrap(), u.id("D1").unwrap(), u.id("D5").unwrap());
        let a = u.config_of(&["E1", "D1"]);
        let mut b = a.clone();
        b.insert(e1);
        b.remove(d5);
        b.apply_delta(&[d5], &[d1]);
        b.apply_delta(&[e1], &[e1]);
        assert!(oracle::shares_storage(&a, &b), "restating the value copies nothing");
        b.apply_delta(&[e1, d1], &[d5, d1]);
        assert!(!oracle::shares_storage(&a, &b));
        assert_eq!(b, u.config_of(&["D1", "D5"]), "removes first, then adds");
        assert_eq!(a, u.config_of(&["E1", "D1"]), "the sibling never sees the write");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_delta_panics_even_when_it_would_change_nothing() {
        let mut c = Config::empty(3);
        c.apply_delta(&[CompId::from_index(3)], &[]);
    }

    #[test]
    fn wide_universe_crosses_word_boundary() {
        let mut u = Universe::new();
        let ids: Vec<CompId> = (0..130).map(|i| u.intern(&format!("C{i}"))).collect();
        let mut c = u.empty_config();
        c.insert(ids[0]);
        c.insert(ids[64]);
        c.insert(ids[129]);
        assert_eq!(c.len(), 3);
        assert!(c.contains(ids[64]));
        let members: Vec<CompId> = c.iter().collect();
        assert_eq!(members, vec![ids[0], ids[64], ids[129]]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let a = Config::empty(3);
        let b = Config::empty(4);
        let _ = a.union(&b);
    }

    #[test]
    #[should_panic(expected = "word 1 (0x4) out of range (width 66)")]
    fn set_word_refuses_a_bit_past_the_width() {
        let mut c = Config::empty(66);
        c.set_word(1, 0b11);
        c.set_word(1, 0b100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        let mut c = Config::empty(3);
        c.insert(CompId::from_index(3));
    }

    #[test]
    fn display_matches_bit_string() {
        let u = u7();
        let c = u.config_of(&["E2"]);
        assert_eq!(format!("{c}"), "0000010");
    }
}
