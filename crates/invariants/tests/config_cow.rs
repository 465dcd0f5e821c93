//! Copy-on-write `Config` against a flat `Vec<u64>` model: random operation
//! sequences over a pool of *aliased* configurations (every slot starts as
//! a clone of slot 0, and `clone` keeps re-aliasing them), at widths on
//! both sides of every chunk boundary. A mutation must never show through
//! a sibling clone, every observer must read what one flat buffer reads,
//! an operation that changes nothing must not copy, and one that changes a
//! bit must leave every chunk it did not change shared.
//!
//! Hand mutations of `config.rs` these fail under (each was run): the
//! chunked `Words::put` copying a chunk whose word does not change
//! (`shared_chunks` drops below the model's count); `runs` cutting the last
//! chunk one word long or short (`Hash`, bit strings, `iter`); hashing the
//! chunks without the word count; `diff_ids` dropping the run's word
//! offset; `is_subset` answering from chunk identity alone; `Config::empty`
//! chunking at `CHUNK_BITS` components instead of past them (`flat_words`
//! at 4 096).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use sada_expr::{CompId, Config};

/// Aliased configurations per case.
const POOL: usize = 4;
/// Components per chunk of a wide configuration (`config.rs` keeps its
/// constant private: the layout is not API, the tests pin it from outside).
const CHUNK_BITS: usize = 4_096;

/// A component picked relative to an anchor, so that ids collide (inserts,
/// removes and no-ops meet) in the first words, on both sides of the first
/// two chunk boundaries and in the last words, at every width.
type Pick = (u8, u32);

/// One generated operation: `(kind, slot, other slot, ids, more ids)`.
type RawOp = (u8, usize, usize, Vec<Pick>, Vec<Pick>);

fn arb_pick() -> impl Strategy<Value = Pick> {
    prop_oneof![(0u8..4, 0u32..96), (4u8..5, any::<u32>())]
}

fn arb_ops() -> impl Strategy<Value = Vec<RawOp>> {
    let ids = || prop::collection::vec(arb_pick(), 0..4);
    prop::collection::vec((0u8..8, 0usize..POOL, 0usize..POOL, ids(), ids()), 1..48)
}

/// The component `pick` names in a configuration of `width > 0` bits.
fn resolve(width: usize, (anchor, off): Pick) -> CompId {
    let off = off as usize;
    let ix = match anchor {
        1 => CHUNK_BITS - 48 + off,
        2 => 2 * CHUNK_BITS - 48 + off,
        3 => width - 1 - off % width,
        _ => off,
    };
    CompId::from_index(ix % width)
}

/// The one-buffer representation: a width and `width.div_ceil(64)` words.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Model {
    width: usize,
    words: Vec<u64>,
}

impl Model {
    fn empty(width: usize) -> Self {
        Model { width, words: vec![0; width.div_ceil(64)] }
    }

    fn get(&self, c: CompId) -> bool {
        self.words[c.index() / 64] >> (c.index() % 64) & 1 == 1
    }

    fn set(&mut self, c: CompId, on: bool) {
        let mask = 1 << (c.index() % 64);
        let word = &mut self.words[c.index() / 64];
        *word = if on { *word | mask } else { *word & !mask };
    }

    fn zip(&self, other: &Model, op: impl Fn(u64, u64) -> u64) -> Model {
        let words = self.words.iter().zip(&other.words).map(|(&a, &b)| op(a, b)).collect();
        Model { width: self.width, words }
    }

    /// Present components, ascending, one bit probe at a time.
    fn ids(&self) -> Vec<CompId> {
        (0..self.width).map(CompId::from_index).filter(|&c| self.get(c)).collect()
    }

    /// At how many chunk positions `self` and `other` hold the same words
    /// (a configuration no wider than one chunk is one chunk).
    fn equal_chunks(&self, other: &Model) -> usize {
        if self.width <= CHUNK_BITS {
            return usize::from(self.words == other.words);
        }
        let per_chunk = CHUNK_BITS / 64;
        self.words
            .chunks(per_chunk)
            .zip(other.words.chunks(per_chunk))
            .filter(|(a, b)| a == b)
            .count()
    }
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// The words `cfg` reads, through the one accessor both layouts answer.
fn words_of(cfg: &Config) -> Vec<u64> {
    (0..cfg.width().div_ceil(64)).map(|ix| cfg.word(ix)).collect()
}

/// After every operation: each slot reads exactly its own model — which is
/// what catches a write leaking through a shared buffer or chunk.
fn words_agree(pool: &[Config], models: &[Model]) -> Result<(), TestCaseError> {
    for (slot, (cfg, model)) in pool.iter().zip(models).enumerate() {
        prop_assert_eq!(cfg.width(), model.width, "slot {}", slot);
        prop_assert_eq!(&words_of(cfg), &model.words, "slot {}", slot);
        prop_assert_eq!(cfg.flat_words().is_some(), model.width <= CHUNK_BITS);
        if let Some(flat) = cfg.flat_words() {
            prop_assert_eq!(flat, &model.words[..], "slot {}", slot);
        }
    }
    Ok(())
}

/// At the end of a sequence: every observer, per slot and per pair.
fn observers_agree(pool: &[Config], models: &[Model]) -> Result<(), TestCaseError> {
    for (cfg, model) in pool.iter().zip(models) {
        let ids = model.ids();
        prop_assert_eq!(cfg.iter().collect::<Vec<_>>(), &ids[..]);
        prop_assert_eq!(cfg.len(), ids.len());
        prop_assert_eq!(cfg.is_empty(), ids.is_empty());
        let bits: String = (0..model.width)
            .rev()
            .map(|ix| if model.get(CompId::from_index(ix)) { '1' } else { '0' })
            .collect();
        let parsed = Config::from_bit_string(&bits).expect("digits only");
        prop_assert_eq!(&parsed, cfg);
        prop_assert_eq!(&words_of(&parsed), &model.words, "no stray bit past the width");
        let built = Config::from_ids(model.width, ids.iter().copied());
        prop_assert_eq!(&built, cfg);
        prop_assert_eq!(&words_of(&built), &model.words);
        prop_assert_eq!(cfg.to_bit_string(), bits);
        // Exactly what the derived hash of `{ nbits, words: Vec<u64> }` wrote.
        prop_assert_eq!(hash_of(cfg), hash_of(model));
        prop_assert_eq!(hash_of(&parsed), hash_of(model), "equal values hash alike, shared or not");
        prop_assert!(!cfg.contains(CompId::from_index(model.width)), "out of range is absent");
    }
    for (a, ma) in pool.iter().zip(models) {
        for (b, mb) in pool.iter().zip(models) {
            prop_assert_eq!(a == b, ma == mb);
            prop_assert_eq!(a.cmp(b), ma.cmp(mb));
            prop_assert_eq!(a.diff_ids(b), ma.zip(mb, |x, y| x ^ y).ids());
            prop_assert_eq!(a.distance(b), a.diff_ids(b).len());
            prop_assert_eq!(a.is_subset(b), ma.zip(mb, |x, y| x & !y).ids().is_empty());
            prop_assert_eq!(a.is_disjoint(b), ma.zip(mb, |x, y| x & y).ids().is_empty());
        }
    }
    Ok(())
}

/// Runs `ops` over `POOL` aliases of one configuration of `width` bits.
fn run(width: usize, seed_ids: &[Pick], ops: &[RawOp]) -> Result<(), TestCaseError> {
    let in_range = |raw: &[Pick]| -> Vec<CompId> {
        raw.iter().filter(|_| width > 0).map(|&p| resolve(width, p)).collect()
    };

    let mut first = Config::empty(width);
    let mut model = Model::empty(width);
    for c in in_range(seed_ids) {
        first.insert(c);
        model.set(c, true);
    }
    let mut pool = vec![first; POOL];
    let mut models = vec![model; POOL];
    prop_assert!(pool.iter().all(|c| Config::shares_storage(c, &pool[0])));

    for (kind, i, j, a, b) in ops {
        let (i, j) = (*i, *j);
        let (a, b) = (in_range(a), in_range(b));
        let before = models[i].clone();
        let siblings: Vec<usize> =
            (0..POOL).filter(|&s| s != i && Config::shares_storage(&pool[s], &pool[i])).collect();
        let mutates_in_place = match kind {
            0 => a.first().is_some_and(|&c| {
                pool[i].insert(c);
                models[i].set(c, true);
                true
            }),
            1 => a.first().is_some_and(|&c| {
                pool[i].remove(c);
                models[i].set(c, false);
                true
            }),
            2 => {
                pool[i].apply_delta(&a, &b);
                a.iter().for_each(|&c| models[i].set(c, false));
                b.iter().for_each(|&c| models[i].set(c, true));
                true
            }
            3 => {
                // A delta that restates the current value: removes of
                // absent components, adds of present ones.
                let absent: Vec<CompId> =
                    a.iter().copied().filter(|&c| !models[i].get(c)).collect();
                let present: Vec<CompId> =
                    b.iter().copied().filter(|&c| models[i].get(c)).collect();
                pool[i].apply_delta(&absent, &present);
                true
            }
            4 => {
                pool[j] = pool[i].clone();
                models[j] = models[i].clone();
                prop_assert!(Config::shares_storage(&pool[i], &pool[j]));
                false
            }
            5..=7 => {
                let (cfg, model) = match kind {
                    5 => (pool[i].union(&pool[j]), models[i].zip(&models[j], |p, q| p | q)),
                    6 => (pool[i].intersection(&pool[j]), models[i].zip(&models[j], |p, q| p & q)),
                    _ => (pool[i].difference(&pool[j]), models[i].zip(&models[j], |p, q| p & !q)),
                };
                pool[i] = cfg;
                models[i] = model;
                false
            }
            _ => unreachable!("kinds are 0..8"),
        };
        words_agree(&pool, &models)?;
        if mutates_in_place {
            // Copy exactly when something changed: a no-op keeps every
            // alias, a real change leaves all of them behind at once —
            // and takes along every chunk it did not change.
            let unchanged = models[i] == before;
            for &s in &siblings {
                prop_assert_eq!(
                    Config::shares_storage(&pool[s], &pool[i]),
                    unchanged,
                    "kind {} on slot {} (sibling {}, unchanged = {})",
                    kind,
                    i,
                    s,
                    unchanged
                );
                prop_assert_eq!(
                    Config::shared_chunks(&pool[s], &pool[i]),
                    before.equal_chunks(&models[i]),
                    "kind {} on slot {} (sibling {})",
                    kind,
                    i,
                    s
                );
            }
        }
    }
    observers_agree(&pool, &models)
}

proptest! {
    #[test]
    fn narrow_configs_match_the_model(
        width in prop::sample::select(vec![0usize, 1, 64, 65]),
        seed_ids in prop::collection::vec(arb_pick(), 0..40),
        ops in arb_ops(),
    ) {
        run(width, &seed_ids, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn configs_at_chunk_boundaries_match_the_model(
        width in prop::sample::select(vec![4_095usize, 4_096, 4_097, 8_191, 8_193]),
        seed_ids in prop::collection::vec(arb_pick(), 0..40),
        ops in arb_ops(),
    ) {
        run(width, &seed_ids, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wide_configs_match_the_model(
        width in prop::sample::select(vec![65_536usize, 200_000]),
        seed_ids in prop::collection::vec(arb_pick(), 0..40),
        ops in arb_ops(),
    ) {
        run(width, &seed_ids, &ops)?;
    }
}

/// What one session does to a 100k-group world's configuration, counted in
/// chunks: 200 000 bits are 49 chunks behind one spine.
#[test]
fn a_one_bit_delta_on_a_wide_configuration_copies_one_chunk_and_a_no_op_none() {
    let width = 200_000usize;
    let chunks = width.div_ceil(CHUNK_BITS);
    let base = Config::from_ids(width, (0..width).step_by(2).map(CompId::from_index));
    assert_eq!(Config::shared_chunks(&base, &base.clone()), chunks);

    let (old, new) = (CompId::from_index(123_456), CompId::from_index(123_457));
    let mut restated = base.clone();
    restated.apply_delta(&[new], &[old]);
    restated.insert(old);
    restated.remove(new);
    assert!(Config::shares_storage(&base, &restated), "a no-op delta keeps the spine");

    let mut one_bit = base.clone();
    one_bit.insert(new);
    assert!(!Config::shares_storage(&base, &one_bit));
    assert_eq!(Config::shared_chunks(&base, &one_bit), chunks - 1);

    // A flip inside one chunk copies that chunk; one that straddles a
    // boundary copies two; the removed-but-absent component's chunk none.
    let mut flipped = base.clone();
    flipped.apply_delta(&[old, CompId::from_index(1)], &[new]);
    assert_eq!(Config::shared_chunks(&base, &flipped), chunks - 1);
    let mut straddling = base.clone();
    let boundary = 7 * CHUNK_BITS;
    straddling.apply_delta(&[CompId::from_index(boundary)], &[CompId::from_index(boundary - 1)]);
    assert_eq!(Config::shared_chunks(&base, &straddling), chunks - 2);
    assert_eq!(Config::shared_chunks(&flipped, &straddling), chunks - 3);
    assert_eq!(base.diff_ids(&straddling).len(), 2);

    // An empty wide configuration is one zero chunk under every slot, and
    // two of them are equal without sharing anything.
    let (e1, e2) = (Config::empty(width), Config::empty(width));
    assert_eq!(Config::shared_chunks(&e1, &e2), 0);
    assert_eq!(e1, e2);
    assert_ne!(e1, base);
}
