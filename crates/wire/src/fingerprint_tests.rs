//! Properties of [`nominal_fingerprint`], the layout key of wire
//! programs, native stubs and the handshake, checked against the
//! display-string hash it replaced.

use std::collections::HashMap;

use mockingbird_corpus::{marshal_corpus, property_pair, visualage};
use mockingbird_mtype::{IntRange, MtypeGraph, MtypeId, MtypeKind, RealPrecision};
use mockingbird_stype::lower::Lowerer;
use mockingbird_stype::script::apply_script;

use crate::nominal_fingerprint;
use crate::program::Fnv128;

/// The key before the graph walk: FNV-128 over the full `display`
/// rendering of the resolved root. Rendering unfolds every shared and
/// mutually recursive reference, so it is exponential on dense graphs;
/// it is kept only as the oracle the linear key must refine.
fn display_fingerprint(graph: &MtypeGraph, id: MtypeId) -> u128 {
    let mut h = Fnv128::new();
    h.write(graph.display(graph.resolve(id)).to_string().as_bytes());
    h.0
}

/// Every node reachable from `roots`, each once, as a candidate root.
fn all_nodes(graph: &MtypeGraph, roots: impl IntoIterator<Item = MtypeId>) -> Vec<MtypeId> {
    let mut seen = vec![false; graph.len()];
    let mut out = Vec::new();
    for root in roots {
        for id in graph.reachable(root) {
            if !std::mem::replace(&mut seen[id.index()], true) {
                out.push(id);
            }
        }
    }
    out
}

/// Asserts that equal keys imply equal renderings (and hence equal old
/// keys) over every `(graph, root)` in `types`. Returns how many roots
/// shared a key with an earlier one.
fn assert_refines_display(types: &[(&MtypeGraph, MtypeId)]) -> usize {
    let mut first: HashMap<u128, (&MtypeGraph, MtypeId)> = HashMap::new();
    let mut shared = 0usize;
    for &(g, id) in types {
        let key = nominal_fingerprint(g, id);
        let Some(&(g0, id0)) = first.get(&key) else {
            first.insert(key, (g, id));
            continue;
        };
        shared += 1;
        let a = g0.display(g0.resolve(id0)).to_string();
        let b = g.display(g.resolve(id)).to_string();
        assert_eq!(a, b, "key {key:032x} merges two renderings");
        assert_eq!(display_fingerprint(g0, id0), display_fingerprint(g, id));
    }
    shared
}

#[test]
fn equal_keys_render_equal_over_the_marshal_corpus() {
    let corpus = marshal_corpus(200, 42);
    let g = &*corpus.graph;
    let roots = corpus.pairs.iter().flat_map(|&(l, r)| [l, r]);
    let types: Vec<_> = all_nodes(g, roots).into_iter().map(|id| (g, id)).collect();
    assert!(types.len() > 400, "{} nodes", types.len());
    let shared = assert_refines_display(&types);
    // Binders and the bodies they resolve to share a key: the property
    // was exercised, not vacuous.
    assert!(shared > 0);
}

#[test]
fn equal_keys_render_equal_over_the_property_pair_stream() {
    let pairs: Vec<_> = (0..64).map(property_pair).collect();
    let mut types = Vec::new();
    for (g, h, ty, var, _) in &pairs {
        types.extend(all_nodes(g, [*ty]).into_iter().map(|id| (g, id)));
        types.extend(all_nodes(h, [*var]).into_iter().map(|id| (h, id)));
    }
    let shared = assert_refines_display(&types);
    assert!(shared > 0, "seeds share primitives across graphs");
}

#[test]
fn the_same_declarations_in_two_fresh_graphs_share_keys() {
    let a = marshal_corpus(200, 42);
    let b = marshal_corpus(200, 42);
    for (&(al, ar), &(bl, br)) in a.pairs.iter().zip(&b.pairs) {
        assert_eq!(
            nominal_fingerprint(&a.graph, al),
            nominal_fingerprint(&b.graph, bl)
        );
        assert_eq!(
            nominal_fingerprint(&a.graph, ar),
            nominal_fingerprint(&b.graph, br)
        );
    }
    for seed in 0..64 {
        let (g1, h1, ty1, var1, _) = property_pair(seed);
        let (g2, h2, ty2, var2, _) = property_pair(seed);
        assert_eq!(nominal_fingerprint(&g1, ty1), nominal_fingerprint(&g2, ty2));
        assert_eq!(
            nominal_fingerprint(&h1, var1),
            nominal_fingerprint(&h2, var2)
        );
        // Arena ids do not reach the key: the same type imported behind
        // unrelated nodes keeps it.
        let mut shifted = (*a.graph).clone();
        let moved = shifted.import(&g1, ty1);
        assert_ne!(moved, ty1);
        assert_eq!(
            nominal_fingerprint(&shifted, moved),
            nominal_fingerprint(&g1, ty1)
        );
    }
}

#[test]
fn provenance_labels_do_not_move_the_key() {
    let mut g = MtypeGraph::new();
    let r = g.real(RealPrecision::SINGLE);
    let point = g.record(vec![r, r]);
    let before = nominal_fingerprint(&g, point);
    g.set_label(point, "Point");
    assert_eq!(nominal_fingerprint(&g, point), before);
}

#[test]
fn swapping_two_record_fields_changes_the_key() {
    let mut g = MtypeGraph::new();
    let i = g.integer(IntRange::signed_bits(32));
    let r = g.real(RealPrecision::DOUBLE);
    let ir = g.record(vec![i, r]);
    let ri = g.record(vec![r, i]);
    assert_ne!(nominal_fingerprint(&g, ir), nominal_fingerprint(&g, ri));

    // Over the corpus: every record with two distinct leading fields
    // changes key when they swap.
    let corpus = marshal_corpus(200, 42);
    let mut g = (*corpus.graph).clone();
    let roots = corpus.pairs.iter().flat_map(|&(l, r)| [l, r]);
    let mut swapped = 0usize;
    for id in all_nodes(&corpus.graph, roots) {
        let MtypeKind::Record(fields) = g.kind(id).clone() else {
            continue;
        };
        if fields.len() < 2 || fields[0] == fields[1] {
            continue;
        }
        let mut flipped = fields;
        flipped.swap(0, 1);
        let other = g.record(flipped);
        assert_ne!(nominal_fingerprint(&g, id), nominal_fingerprint(&g, other));
        swapped += 1;
    }
    assert!(swapped > 50, "{swapped} records swapped");
}

#[test]
fn an_unrolled_list_does_not_share_the_canonical_lists_key() {
    let mut g = MtypeGraph::new();
    let e = g.real(RealPrecision::SINGLE);
    let list = g.list_of(e);
    // Rec X. Choice(Unit, Record(E, Choice(Unit, Record(E, X)))): the
    // same values, but the binder covers two cells, and the layout
    // follows the binder.
    let unrolled = g.recursive(|g, me| {
        let unit = g.unit();
        let back = g.record(vec![e, me]);
        let tail = g.choice(vec![unit, back]);
        let cell = g.record(vec![e, tail]);
        g.choice(vec![unit, cell])
    });
    assert_ne!(
        nominal_fingerprint(&g, list),
        nominal_fingerprint(&g, unrolled)
    );
    // Choice(Unit, Rec Y. Record(E, Choice(Unit, Y))): the binder moved
    // from the choice to the cell.
    let unit = g.unit();
    let cells = g.recursive(|g, me| {
        let tail = g.choice(vec![unit, me]);
        g.record(vec![e, tail])
    });
    let moved = g.choice(vec![unit, cells]);
    assert_ne!(
        nominal_fingerprint(&g, list),
        nominal_fingerprint(&g, moved)
    );
}

/// Lowers every VisualAge class on both sides into a fresh graph and
/// returns their keys.
fn visualage_keys(classes: usize) -> Vec<u128> {
    let mut va = visualage(classes, 42);
    apply_script(&mut va.java, &va.script).unwrap();
    let mut g = MtypeGraph::new();
    let mut roots = Vec::new();
    for uni in [&va.cxx, &va.java] {
        let mut lw = Lowerer::new(uni, &mut g);
        for name in &va.class_names {
            roots.push(lw.lower_named(name).unwrap());
        }
    }
    roots
        .iter()
        .map(|&id| nominal_fingerprint(&g, id))
        .collect()
}

/// `Record(x, x)` nested `depth` times over one integer: `depth + 1`
/// nodes, `2^depth` leaves when unfolded.
fn doubling_dag(depth: usize) -> (MtypeGraph, MtypeId) {
    let mut g = MtypeGraph::new();
    let mut x = g.integer(IntRange::signed_bits(32));
    for _ in 0..depth {
        x = g.record(vec![x, x]);
    }
    (g, x)
}

#[test]
fn keys_stay_linear_on_inter_related_and_doubling_graphs() {
    // Neither finishes under the display-string key: 40 mutually
    // referencing API classes, and a DAG of 2^64 unfolded leaves.
    let keys = visualage_keys(40);
    assert_eq!(keys.len(), 80);
    assert_eq!(keys, visualage_keys(40), "keys are deterministic");

    let (g1, deep1) = doubling_dag(64);
    let (g2, deep2) = doubling_dag(64);
    assert_eq!(g1.len(), 65);
    assert_eq!(
        nominal_fingerprint(&g1, deep1),
        nominal_fingerprint(&g2, deep2)
    );
    let (g3, shallower) = doubling_dag(63);
    assert_ne!(
        nominal_fingerprint(&g1, deep1),
        nominal_fingerprint(&g3, shallower)
    );
}
