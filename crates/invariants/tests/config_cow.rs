//! Copy-on-write `Config` against a `Vec<bool>` model: random operation
//! sequences over a pool of *aliased* configurations (every slot starts as
//! a clone of slot 0, and `clone` keeps re-aliasing them). A mutation must
//! never show through a sibling clone, every observer must read what the
//! owned representation read, and an operation that changes nothing must
//! not copy.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use sada_expr::{CompId, Config};

/// Aliased configurations per case.
const POOL: usize = 4;

/// One generated operation: `(kind, slot, other slot, ids, more ids)`.
type RawOp = (u8, usize, usize, Vec<u32>, Vec<u32>);

/// Ids cluster in the first two words (so inserts, removes and no-ops
/// collide at width 65 536 too) with a tail over the whole width.
fn arb_id() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..96, any::<u32>()]
}

fn arb_ops() -> impl Strategy<Value = Vec<RawOp>> {
    let ids = || prop::collection::vec(arb_id(), 0..4);
    prop::collection::vec((0u8..8, 0usize..POOL, 0usize..POOL, ids(), ids()), 1..48)
}

/// The owned representation's word buffer for `model`.
fn pack(model: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; model.len().div_ceil(64)];
    for (ix, _) in model.iter().enumerate().filter(|(_, &b)| b) {
        words[ix / 64] |= 1 << (ix % 64);
    }
    words
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// After every operation: each slot reads exactly its own model — which is
/// what catches a write leaking through a shared buffer.
fn words_agree(pool: &[Config], models: &[Vec<bool>]) -> Result<(), TestCaseError> {
    for (slot, (cfg, model)) in pool.iter().zip(models).enumerate() {
        prop_assert_eq!(cfg.width(), model.len(), "slot {}", slot);
        prop_assert_eq!(cfg.words(), &pack(model)[..], "slot {}", slot);
    }
    Ok(())
}

/// At the end of a sequence: every observer, per slot and per pair.
fn observers_agree(pool: &[Config], models: &[Vec<bool>]) -> Result<(), TestCaseError> {
    let set = |m: &[bool]| -> Vec<CompId> {
        (0..m.len()).filter(|&ix| m[ix]).map(CompId::from_index).collect()
    };
    for (cfg, model) in pool.iter().zip(models) {
        prop_assert_eq!(cfg.iter().collect::<Vec<_>>(), set(model));
        prop_assert_eq!(cfg.len(), model.iter().filter(|&&b| b).count());
        prop_assert_eq!(cfg.is_empty(), !model.contains(&true));
        let bits: String = model.iter().rev().map(|&b| if b { '1' } else { '0' }).collect();
        prop_assert_eq!(Config::from_bit_string(&bits), Ok(cfg.clone()));
        prop_assert_eq!(&Config::from_ids(model.len(), set(model)), cfg);
        prop_assert_eq!(cfg.to_bit_string(), bits);
        // Exactly what the derived hash of `{ nbits, words: Vec<u64> }` wrote.
        prop_assert_eq!(hash_of(cfg), hash_of(&(model.len(), pack(model))));
        prop_assert!(!cfg.contains(CompId::from_index(model.len())), "out of range is absent");
    }
    for (a, ma) in pool.iter().zip(models) {
        for (b, mb) in pool.iter().zip(models) {
            prop_assert_eq!(a == b, ma == mb);
            prop_assert_eq!(a.cmp(b), pack(ma).cmp(&pack(mb)));
            let differing: Vec<bool> = ma.iter().zip(mb).map(|(x, y)| x != y).collect();
            prop_assert_eq!(a.diff_ids(b), set(&differing));
            prop_assert_eq!(a.is_subset(b), ma.iter().zip(mb).all(|(&x, &y)| !x || y));
            prop_assert_eq!(a.is_disjoint(b), ma.iter().zip(mb).all(|(&x, &y)| !(x && y)));
        }
    }
    Ok(())
}

/// Runs `ops` over `POOL` aliases of one configuration of `width` bits.
fn run(width: usize, seed_ids: &[u32], ops: &[RawOp]) -> Result<(), TestCaseError> {
    let id = |raw: u32| CompId::from_index(raw as usize % width.max(1));
    let in_range =
        |raw: &[u32]| -> Vec<CompId> { raw.iter().filter(|_| width > 0).map(|&r| id(r)).collect() };

    let mut first = Config::empty(width);
    let mut model = vec![false; width];
    for c in in_range(seed_ids) {
        first.insert(c);
        model[c.index()] = true;
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
                models[i][c.index()] = true;
                true
            }),
            1 => a.first().is_some_and(|&c| {
                pool[i].remove(c);
                models[i][c.index()] = false;
                true
            }),
            2 => {
                pool[i].apply_delta(&a, &b);
                a.iter().for_each(|c| models[i][c.index()] = false);
                b.iter().for_each(|c| models[i][c.index()] = true);
                true
            }
            3 => {
                // A delta that restates the current value: removes of
                // absent components, adds of present ones.
                let absent: Vec<CompId> =
                    a.iter().copied().filter(|c| !models[i][c.index()]).collect();
                let present: Vec<CompId> =
                    b.iter().copied().filter(|c| models[i][c.index()]).collect();
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
                let (x, y) = (&models[i], &models[j]);
                let (cfg, model): (Config, Vec<bool>) = match kind {
                    5 => (pool[i].union(&pool[j]), x.iter().zip(y).map(|(&p, &q)| p | q).collect()),
                    6 => (
                        pool[i].intersection(&pool[j]),
                        x.iter().zip(y).map(|(&p, &q)| p & q).collect(),
                    ),
                    _ => (
                        pool[i].difference(&pool[j]),
                        x.iter().zip(y).map(|(&p, &q)| p & !q).collect(),
                    ),
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
            // alias, a real change leaves all of them behind at once.
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
            }
        }
    }
    observers_agree(&pool, &models)
}

proptest! {
    #[test]
    fn narrow_configs_match_the_model(
        width in prop::sample::select(vec![0usize, 1, 64, 65]),
        seed_ids in prop::collection::vec(arb_id(), 0..40),
        ops in arb_ops(),
    ) {
        run(width, &seed_ids, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wide_configs_match_the_model(
        seed_ids in prop::collection::vec(arb_id(), 0..40),
        ops in arb_ops(),
    ) {
        run(65_536, &seed_ids, &ops)?;
    }
}
