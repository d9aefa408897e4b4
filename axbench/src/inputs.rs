//! Everything a workload feeds the program, derived from the seed alone:
//! collections, document splits, query sets and the merged cost model.

use approxql_cost::{CostModel, NodeType};
use approxql_gen::{
    DataGenConfig, DataGenerator, GeneratedQuery, QueryGenConfig, QueryGenerator, PATTERN_1,
    PATTERN_2, PATTERN_3,
};
use approxql_index::LabelIndex;
use approxql_tree::DataTree;
use approxql_xml::{Document, Element, XmlNode};
use std::collections::HashSet;

/// Seed of everything that decides how much work a run does: the
/// collection, the warm workloads' query sets and the held-out split.
///
/// These are fixed parts of the benchmark, like the paper's test series.
/// Measured on ten seeds each: the generator's random DTD moves store size
/// and cold-open time by ±40 %, a fresh draw of 24 (64) queries moves the
/// warm medians by ±30 % (throughput by ±60 %), another held-out sixth
/// moves insert latency by ±20 % — every one far beyond any regression
/// bound, so a number from seed-drawn work would be a property of the
/// seed. `--seed` decides what is left: the order of the operations, and
/// the query texts wherever the queries do not decide the time (cold
/// queries, reads after writes).
pub const WORK_SEED: u64 = 2002;

/// The paper's test series (1M elements, 100 names, 100k terms, 10M word
/// occurrences) with elements, vocabulary and words all divided by `div`.
pub fn collection_config(div: usize) -> DataGenConfig {
    let full = DataGenConfig::paper_scale();
    DataGenConfig {
        element_count: full.element_count / div,
        vocabulary: (full.vocabulary / div).max(50),
        word_occurrences: full.word_occurrences / div,
        seed: WORK_SEED,
        ..full
    }
}

pub fn generate_documents(div: usize) -> Vec<Document> {
    DataGenerator::new(collection_config(div))
        .generate_documents()
        .into_iter()
        .map(|root| Document { root })
        .collect()
}

/// Total serialized size of `docs`, the "input bytes" of the byte ratios.
pub fn xml_bytes(docs: &[Document]) -> u64 {
    docs.iter().map(|d| d.to_xml_string().len() as u64).sum()
}

/// Splits every document larger than `max_elements` elements: its child
/// elements are promoted to documents of their own (recursively) and the
/// element itself stays behind with only its text. The generator emits a
/// few dozen ~3k-node roots; a mutation stream needs hundreds of
/// documents.
pub fn split_documents(docs: Vec<Document>, max_elements: usize) -> Vec<Document> {
    fn split(el: Element, max_elements: usize, out: &mut Vec<Document>) {
        if el.element_count() <= max_elements {
            out.push(Document { root: el });
            return;
        }
        let mut stub = Element {
            name: el.name,
            attributes: el.attributes,
            children: Vec::new(),
        };
        let mut promoted = Vec::new();
        for child in el.children {
            match child {
                XmlNode::Element(e) => promoted.push(e),
                text => stub.children.push(text),
            }
        }
        out.push(Document { root: stub });
        for e in promoted {
            split(e, max_elements, out);
        }
    }
    let mut out = Vec::new();
    for d in docs {
        split(d.root, max_elements, &mut out);
    }
    out
}

/// Holds out every `every`-th document as the insert pool; returns
/// `(initial, pool)`.
pub fn hold_out(docs: Vec<Document>, every: usize) -> (Vec<Document>, Vec<Document>) {
    let mut initial = Vec::new();
    let mut pool = Vec::new();
    for (i, d) in docs.into_iter().enumerate() {
        if i % every == every - 1 {
            pool.push(d);
        } else {
            initial.push(d);
        }
    }
    (initial, pool)
}

/// Wraps `doc` in two element names the collection has never seen, so
/// every root-to-leaf path of the document is new to the schema.
pub fn novel_document(doc: &Document, k: usize) -> Document {
    let inner = Element::new(format!("novel{k}b")).with_child(doc.root.clone());
    Document {
        root: Element::new(format!("novel{k}a")).with_child(inner),
    }
}

/// One query of a workload: its text and requested result count.
#[derive(Clone)]
pub struct QuerySpec {
    pub text: String,
    pub n: usize,
}

/// How many queries of each paper pattern a workload draws.
pub struct QueryMix {
    pub pattern_1: usize,
    pub pattern_2: usize,
    pub pattern_3: usize,
}

/// Draws the mix, pattern by pattern, from the collection's own labels,
/// with `renamings` rename targets per query label.
pub fn generate_queries(
    tree: &DataTree,
    labels: &LabelIndex,
    seed: u64,
    renamings: usize,
    mix: &QueryMix,
) -> Vec<GeneratedQuery> {
    let cfg = QueryGenConfig {
        renamings_per_label: renamings,
        seed: seed ^ 0x51ed_270b,
        ..QueryGenConfig::default()
    };
    let mut qgen = QueryGenerator::new(tree, labels, cfg);
    let mut out = qgen.generate_batch(PATTERN_1, mix.pattern_1);
    out.extend(qgen.generate_batch(PATTERN_2, mix.pattern_2));
    out.extend(qgen.generate_batch(PATTERN_3, mix.pattern_3));
    out
}

/// Alternates `n` over `ns` across the generated queries.
pub fn with_result_counts(queries: &[GeneratedQuery], ns: &[usize]) -> Vec<QuerySpec> {
    queries
        .iter()
        .enumerate()
        .map(|(i, gq)| QuerySpec {
            text: gq.query.clone(),
            n: ns[i % ns.len()],
        })
        .collect()
}

/// One cost model for a whole query set — a `Database` carries a single
/// model, while the generator emits one per query. Union of the per-query
/// tables; for a label listed by several queries the first query wins
/// (its delete cost, and its whole renaming list).
pub fn merged_costs(queries: &[GeneratedQuery]) -> CostModel {
    let mut builder = CostModel::builder().insert_default(1);
    let mut deleted: HashSet<(NodeType, String)> = HashSet::new();
    let mut renamed: HashSet<(NodeType, String)> = HashSet::new();
    for gq in queries {
        for (ty, label, cost) in gq.costs.listed_deletes() {
            if deleted.insert((ty, label.to_owned())) {
                builder = builder.delete(ty, label, cost);
            }
        }
        let mut own: HashSet<(NodeType, String)> = HashSet::new();
        for (ty, from, to, cost) in gq.costs.listed_renames() {
            let key = (ty, from.to_owned());
            if own.contains(&key) || !renamed.contains(&key) {
                own.insert(key);
                builder = builder.rename(ty, from, to, cost);
            }
        }
        renamed.extend(own);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxql_cost::Cost;

    #[test]
    fn split_keeps_every_element_and_word() {
        let docs = generate_documents(1000);
        let elements: usize = docs.iter().map(|d| d.root.element_count()).sum();
        fn words_in(el: &Element) -> usize {
            el.children
                .iter()
                .map(|c| match c {
                    XmlNode::Text(t) => t.split_whitespace().count(),
                    XmlNode::Element(e) => words_in(e),
                })
                .sum()
        }
        let words = |ds: &[Document]| -> usize { ds.iter().map(|d| words_in(&d.root)).sum() };
        let before = words(&docs);
        let parts = split_documents(docs, 40);
        assert!(parts.len() > 20, "only {} documents", parts.len());
        assert!(parts
            .iter()
            .all(|d| d.root.element_count() <= 40 || d.root.child_elements().next().is_none()));
        assert_eq!(
            parts.iter().map(|d| d.root.element_count()).sum::<usize>(),
            elements
        );
        assert_eq!(words(&parts), before);
        let (initial, pool) = hold_out(parts, 6);
        assert_eq!(pool.len(), (initial.len() + pool.len()) / 6);
    }

    #[test]
    fn merged_costs_first_writer_wins() {
        let q = |del: u64, to: &str| GeneratedQuery {
            query: String::from("a"),
            costs: CostModel::builder()
                .delete(NodeType::Struct, "a", Cost::finite(del))
                .rename(NodeType::Struct, "a", to, Cost::finite(del))
                .rename(NodeType::Struct, "a", "shared", Cost::finite(del))
                .build(),
        };
        let merged = merged_costs(&[q(1, "x"), q(2, "y")]);
        assert_eq!(merged.delete_cost(NodeType::Struct, "a"), Cost::finite(1));
        let targets: Vec<&str> = merged
            .renamings(NodeType::Struct, "a")
            .iter()
            .map(|(t, _)| t.as_str())
            .collect();
        assert_eq!(targets, ["shared", "x"]);
    }

    #[test]
    fn seed_changes_the_queries() {
        let tree = DataGenerator::new(collection_config(1000)).generate_tree(&CostModel::new());
        let labels = LabelIndex::build(&tree);
        let mix = QueryMix {
            pattern_1: 2,
            pattern_2: 2,
            pattern_3: 1,
        };
        let texts = |seed| -> Vec<String> {
            generate_queries(&tree, &labels, seed, 5, &mix)
                .into_iter()
                .map(|q| q.query)
                .collect()
        };
        assert_eq!(texts(1), texts(1));
        assert_ne!(texts(1), texts(2));
    }
}
