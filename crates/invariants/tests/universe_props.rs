//! Model test for [`Universe`], the name arena: random `intern` / `id`
//! sequences against a `Vec<String>` whose positions are the ids.
//!
//! Names repeat, share prefixes (`A`, `AB`, `ABC`), include the empty
//! name, multi-byte text and names hundreds of bytes long, and there are
//! enough of them that a universe started by `new()` or by
//! `with_capacity(k)` for k in {0, 1, 3} grows its id table several times
//! mid-sequence. Hand mutations this file catches, each checked against a
//! copy of `config.rs`:
//! - growing the table without placing the ids again (`grow` keeps only
//!   its new zeroed slots): every name interned before the growth is lost,
//!   so `id` answers `None` and a repeated `intern` hands out a second id;
//! - a name's start read from its own end offset rather than the one
//!   before it: every name but the first reads back empty.

use proptest::prelude::*;

use sada_expr::{CompId, Universe};

/// The names a sequence draws from: special cases first, then enough
/// plain ones that the table must grow.
fn pool() -> Vec<String> {
    let mut names: Vec<String> = ["", "A", "AB", "ABC", "B", "a", "é", "名前", "Old1", "Old12"]
        .into_iter()
        .map(String::from)
        .collect();
    names.push("x".repeat(300));
    names.push("x".repeat(301));
    names.extend((0..28).map(|i| format!("C{i}")));
    names
}

/// Every answer `u` gives must be the model's: ids are positions.
fn check_against(u: &Universe, model: &[String], pool: &[String]) -> Result<(), TestCaseError> {
    prop_assert_eq!(u.len(), model.len());
    prop_assert_eq!(u.is_empty(), model.is_empty());
    let ids: Vec<CompId> = u.iter().collect();
    prop_assert_eq!(ids, (0..model.len()).map(CompId::from_index).collect::<Vec<_>>());
    for (ix, name) in model.iter().enumerate() {
        prop_assert_eq!(u.name(CompId::from_index(ix)), name.as_str());
    }
    for name in pool {
        let want = model.iter().position(|m| m == name).map(CompId::from_index);
        prop_assert_eq!(u.id(name), want, "id of {:?}", name);
    }
    Ok(())
}

/// Interns `name` into the universe and the model; the ids must agree.
fn intern_both(u: &mut Universe, model: &mut Vec<String>, name: &str) -> Result<(), TestCaseError> {
    let want = match model.iter().position(|m| m == name) {
        Some(ix) => ix,
        None => {
            model.push(name.to_string());
            model.len() - 1
        }
    };
    prop_assert_eq!(u.intern(name), CompId::from_index(want), "intern {:?}", name);
    Ok(())
}

proptest! {
    #[test]
    fn the_arena_answers_like_a_vector_of_names(
        start in prop::sample::select(vec![None, Some(0usize), Some(1), Some(3)]),
        ops in prop::collection::vec((any::<bool>(), 0usize..40), 0..120),
        split in 0usize..120,
        more in prop::collection::vec(0usize..40, 0..40),
    ) {
        let pool = pool();
        let mut u = match start {
            None => Universe::new(),
            Some(k) => Universe::with_capacity(k),
        };
        let mut model: Vec<String> = Vec::new();
        let mut snapshot = None;
        for (step, &(intern, ix)) in ops.iter().enumerate() {
            if step == split {
                snapshot = Some((u.clone(), model.clone()));
            }
            let name = &pool[ix];
            if intern {
                intern_both(&mut u, &mut model, name)?;
            } else {
                let want = model.iter().position(|m| m == name).map(CompId::from_index);
                prop_assert_eq!(u.id(name), want, "id of {:?}", name);
            }
        }
        check_against(&u, &model, &pool)?;

        // A clone answers the same, and interning into it leaves the
        // original as it was.
        let (original, original_model) = snapshot.unwrap_or_else(|| (u.clone(), model.clone()));
        let mut clone = original.clone();
        let mut clone_model = original_model.clone();
        check_against(&clone, &clone_model, &pool)?;
        for &ix in &more {
            intern_both(&mut clone, &mut clone_model, &pool[ix])?;
        }
        check_against(&clone, &clone_model, &pool)?;
        check_against(&original, &original_model, &pool)?;
    }

    #[test]
    fn ids_do_not_depend_on_the_hash_keys(
        order in prop::collection::vec(0usize..40, 0..80),
    ) {
        // Every universe draws its own keys, and another thread seeds
        // them differently again; registration order alone decides ids.
        let pool = pool();
        let names: Vec<String> = order.iter().map(|&ix| pool[ix].clone()).collect();
        let intern_all = |names: &[String]| {
            let mut u = Universe::new();
            names.iter().map(|n| u.intern(n)).collect::<Vec<CompId>>()
        };
        let here = intern_all(&names);
        let again = intern_all(&names);
        let elsewhere = std::thread::scope(|s| s.spawn(|| intern_all(&names)).join().unwrap());
        prop_assert_eq!(&here, &again);
        prop_assert_eq!(&here, &elsewhere);
    }
}
