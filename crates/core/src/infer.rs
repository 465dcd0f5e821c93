//! Automatic generation of dependency relationships (Section 7).
//!
//! "We are investigating techniques that enable automatic generation of
//! dependency relationships from formal software requirements
//! specifications." This module implements the structural half of that
//! program: given the communication topology ([`SystemModel`] channels), a
//! codec-compatibility catalog (which tags each component produces or
//! accepts), and resource constraints, it derives the paper's invariants
//! mechanically:
//!
//! 1. **Resource constraints** — each declared exclusive group becomes
//!    `one_of(group)`.
//! 2. **Security constraint** — exactly one producer must be deployed
//!    (`one_of(encoders)`), so the stream is never plaintext.
//! 3. **Dependency invariants** — for every encoder `E` producing tag `t`
//!    and every receiving process `P` (a process hosting a decoder that an
//!    encoder feeds), `E ⇒ ⋁ {decoders on P accepting t}`, conjoined over
//!    all receiving processes: exactly the shape of the paper's
//!    `E1 → (D1 ∨ D2) ∧ D4`.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use sada_expr::{CompId, Expr, InvariantSet, Universe};
use sada_model::SystemModel;

/// Which packet tag each component produces (encoders) or accepts
/// (decoders). A component may accept several tags (the paper's
/// 128/64-compatible `D2`).
#[derive(Debug, Clone, Default)]
pub struct CodecCatalog {
    produces: HashMap<CompId, u16>,
    accepts: HashMap<CompId, Vec<u16>>,
}

impl CodecCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        CodecCatalog::default()
    }

    /// Declares `comp` an encoder producing `tag`.
    pub fn producer(&mut self, comp: CompId, tag: u16) -> &mut Self {
        self.produces.insert(comp, tag);
        self
    }

    /// Declares `comp` a decoder accepting `tags`.
    pub fn acceptor(&mut self, comp: CompId, tags: &[u16]) -> &mut Self {
        self.accepts.insert(comp, tags.to_vec());
        self
    }

    /// All declared encoders, in id order.
    pub(crate) fn encoders(&self) -> Vec<CompId> {
        let mut v: Vec<CompId> = self.produces.keys().copied().collect();
        v.sort();
        v
    }

    /// All declared decoders, in id order.
    pub(crate) fn decoders(&self) -> Vec<CompId> {
        let mut v: Vec<CompId> = self.accepts.keys().copied().collect();
        v.sort();
        v
    }
}

/// Inference inputs beyond the topology.
#[derive(Debug, Clone, Default)]
pub struct InferenceConfig {
    /// Groups of components that are mutually exclusive (resource
    /// constraints): each becomes a `one_of` invariant.
    pub exclusive_groups: Vec<Vec<CompId>>,
    /// Require exactly one encoder at all times (the paper's security
    /// constraint).
    pub one_encoder: bool,
}

/// Derives the dependency invariant set from structure.
///
/// Receiving processes are those hosting a decoder that some encoder feeds
/// through a declared channel; for each encoder and each receiving process,
/// a decoder accepting the encoder's tag must be present.
pub fn infer_invariants(
    u: &Universe,
    model: &SystemModel,
    catalog: &CodecCatalog,
    cfg: &InferenceConfig,
) -> InvariantSet {
    let mut inv = InvariantSet::new();

    for group in &cfg.exclusive_groups {
        inv.push(Expr::exactly_one(group.iter().map(|&c| Expr::var(c)).collect()));
    }

    let encoders = catalog.encoders();
    if cfg.one_encoder && !encoders.is_empty() {
        inv.push(Expr::exactly_one(encoders.iter().map(|&c| Expr::var(c)).collect()));
    }

    // Receiving processes: hosts of decoders fed (directly) by any encoder.
    let mut receiving = BTreeSet::new();
    for ch in model.channels() {
        if catalog.produces.contains_key(&ch.from) && catalog.accepts.contains_key(&ch.to) {
            if let Some(p) = model.host_of(ch.to) {
                receiving.insert(p);
            }
        }
    }

    // Decoders grouped by hosting process, id order for determinism.
    let mut decoders_by_proc: BTreeMap<_, Vec<CompId>> = BTreeMap::new();
    for d in catalog.decoders() {
        if let Some(p) = model.host_of(d) {
            decoders_by_proc.entry(p).or_default().push(d);
        }
    }

    for e in encoders {
        let tag = catalog.produces[&e];
        let mut conjuncts = Vec::new();
        for p in &receiving {
            let accepting: Vec<Expr> = decoders_by_proc
                .get(p)
                .into_iter()
                .flatten()
                .filter(|d| catalog.accepts[d].contains(&tag))
                .map(|&d| Expr::var(d))
                .collect();
            // A receiving process with no compatible decoder component at
            // all makes the encoder undeployable: empty Or == false.
            conjuncts.push(if accepting.len() == 1 {
                accepting.into_iter().next().expect("len checked")
            } else {
                Expr::or(accepting)
            });
        }
        if !conjuncts.is_empty() {
            let rhs = if conjuncts.len() == 1 {
                conjuncts.into_iter().next().expect("len checked")
            } else {
                Expr::and(conjuncts)
            };
            inv.push(Expr::var(e).implies(rhs));
        }
    }
    let _ = u;
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casestudy::case_study;
    use sada_expr::enumerate;
    use sada_meta::tags;

    /// Rebuilds the case-study's codec facts and checks the inferred
    /// invariants define *exactly* the paper's safe-configuration set.
    #[test]
    fn inferred_invariants_reproduce_table1() {
        let cs = case_study();
        let u = cs.spec.universe();
        let id = |n: &str| u.id(n).unwrap();

        let mut catalog = CodecCatalog::new();
        catalog
            .producer(id("E1"), tags::DES64)
            .producer(id("E2"), tags::DES128)
            .acceptor(id("D1"), &[tags::DES64])
            .acceptor(id("D2"), &[tags::DES128, tags::DES64])
            .acceptor(id("D3"), &[tags::DES128])
            .acceptor(id("D4"), &[tags::DES64])
            .acceptor(id("D5"), &[tags::DES128]);

        let cfg = InferenceConfig {
            exclusive_groups: vec![vec![id("D1"), id("D2"), id("D3")]],
            one_encoder: true,
        };
        let inferred = infer_invariants(u, cs.spec.model(), &catalog, &cfg);

        let from_paper = enumerate::safe_configs(u, cs.spec.invariants());
        let from_inference = enumerate::safe_configs(u, &inferred);
        assert_eq!(from_inference, from_paper, "inference must reconstruct Table 1 exactly");
    }

    #[test]
    fn inferred_dependency_shape_matches_paper() {
        let cs = case_study();
        let u = cs.spec.universe();
        let id = |n: &str| u.id(n).unwrap();
        let mut catalog = CodecCatalog::new();
        catalog
            .producer(id("E1"), tags::DES64)
            .acceptor(id("D1"), &[tags::DES64])
            .acceptor(id("D2"), &[tags::DES128, tags::DES64])
            .acceptor(id("D4"), &[tags::DES64]);
        let inferred = infer_invariants(u, cs.spec.model(), &catalog, &InferenceConfig::default());
        assert_eq!(inferred.exprs().len(), 1);
        // E1 => (D1 | D2) & D4 — the paper's first dependency invariant.
        assert_eq!(inferred.exprs()[0].display(u).to_string(), "(E1 => ((D1 | D2) & D4))");
    }

    #[test]
    fn process_without_compatible_decoder_blocks_encoder() {
        let mut u = Universe::new();
        let e = u.intern("E");
        let d = u.intern("D");
        let mut model = SystemModel::new();
        let server = model.add_process();
        let client = model.add_process();
        model.place(e, server);
        model.place(d, client);
        model.connect(e, d);
        let mut catalog = CodecCatalog::new();
        catalog.producer(e, 7).acceptor(d, &[9]); // incompatible tag
        let inv = infer_invariants(&u, &model, &catalog, &InferenceConfig::default());
        // E => false: no configuration with E is safe.
        let safe = enumerate::safe_configs(&u, &inv);
        assert!(safe.iter().all(|c| !c.contains(e)));
        assert!(safe.iter().any(|c| c.contains(d)), "decoder alone is fine");
    }

    #[test]
    fn no_channels_no_dependencies() {
        let mut u = Universe::new();
        let e = u.intern("E");
        let mut model = SystemModel::new();
        let p = model.add_process();
        model.place(e, p);
        let mut catalog = CodecCatalog::new();
        catalog.producer(e, 1);
        let inv = infer_invariants(&u, &model, &catalog, &InferenceConfig::default());
        assert!(inv.exprs().is_empty(), "nothing receives, nothing depends");
    }
}
