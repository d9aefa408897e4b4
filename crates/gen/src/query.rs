//! The approXQL query generator (Section 8.1).
//!
//! "The generator expects a query pattern that determines the structure of
//! the query. A query pattern consists of templates and operators. The
//! query generator produces approXQL queries by filling in the templates
//! with names and terms randomly selected from the indexes of the data
//! tree. For each produced query, the generator also creates a file that
//! contains the insert costs, the delete costs, and the renamings of the
//! query selectors. The labels used for renamings are selected randomly
//! from the indexes."

use approxql_cost::{Cost, CostModel, NodeType};
use approxql_index::LabelIndex;
use approxql_query::{parse_query, QueryNode};
use approxql_tree::DataTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's "simple path query" pattern.
pub const PATTERN_1: &str = "name[name[term]]";
/// The paper's "small Boolean query" pattern.
pub const PATTERN_2: &str = "name[name[term and (term or term)]]";
/// The paper's "large Boolean query" pattern.
pub const PATTERN_3: &str =
    "name[name[name[term and term and (term or term)] or name[name[term and term]]] and name]";

/// Parameters of the query generator.
#[derive(Debug, Clone)]
pub struct QueryGenConfig {
    /// Renamings emitted per query label (the experiments use 0, 5, 10).
    pub renamings_per_label: usize,
    /// Random rename costs are drawn from this inclusive range.
    pub rename_cost_range: (u64, u64),
    /// Random delete costs are drawn from this inclusive range (every
    /// query selector gets a delete cost, making deletions possible).
    pub delete_cost_range: (u64, u64),
    /// RNG seed.
    pub seed: u64,
    /// Draw labels weighted by their number of occurrences (a uniform
    /// draw over index *entries*), instead of uniformly over distinct
    /// labels. With Zipfian terms this makes frequent words — and thus
    /// long postings — likely, which is what gives the experiments their
    /// shape. Default `true`.
    pub weighted_labels: bool,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        QueryGenConfig {
            renamings_per_label: 0,
            rename_cost_range: (1, 9),
            delete_cost_range: (1, 9),
            seed: 2287, // LNCS volume of EDBT 2002
            weighted_labels: true,
        }
    }
}

/// One generated query plus its cost table.
#[derive(Debug, Clone)]
pub struct GeneratedQuery {
    /// The approXQL query string.
    pub query: String,
    /// The per-query cost model (insert defaults, delete costs, renamings).
    pub costs: CostModel,
}

/// Fills query patterns with labels drawn from a database's indexes.
pub struct QueryGenerator {
    names: Vec<String>,
    terms: Vec<String>,
    /// Cumulative occurrence counts aligned with `names` / `terms`.
    name_weights: Vec<u64>,
    term_weights: Vec<u64>,
    rng: StdRng,
    cfg: QueryGenConfig,
}

impl QueryGenerator {
    /// Creates a generator drawing labels from `index` (resolved through
    /// `tree`'s interner). The virtual-root label is excluded.
    pub fn new(tree: &DataTree, index: &LabelIndex, cfg: QueryGenConfig) -> QueryGenerator {
        let mut names: Vec<(String, usize)> = index
            .labels_of_type(NodeType::Struct)
            .into_iter()
            .map(|(l, count)| (tree.resolve_label(l).to_owned(), count))
            .filter(|(l, _)| !l.starts_with('\u{0}'))
            .collect();
        let mut terms: Vec<(String, usize)> = index
            .labels_of_type(NodeType::Text)
            .into_iter()
            .map(|(l, count)| (tree.resolve_label(l).to_owned(), count))
            .filter(|(l, _)| !l.starts_with('\u{0}'))
            .collect();
        names.sort();
        terms.sort();
        assert!(!names.is_empty(), "the collection has no element names");
        assert!(!terms.is_empty(), "the collection has no terms");
        let cumulate = |v: &[(String, usize)]| {
            let mut acc = 0u64;
            v.iter()
                .map(|&(_, c)| {
                    acc += c as u64;
                    acc
                })
                .collect::<Vec<u64>>()
        };
        let name_weights = cumulate(&names);
        let term_weights = cumulate(&terms);
        QueryGenerator {
            names: names.into_iter().map(|(l, _)| l).collect(),
            terms: terms.into_iter().map(|(l, _)| l).collect(),
            name_weights,
            term_weights,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
        }
    }

    fn pick(rng: &mut StdRng, pool: &[String], weights: &[u64], weighted: bool) -> String {
        let idx = if weighted {
            // Pools are non-empty by construction; 1 keeps gen_range sane
            // if that ever changes.
            let total = weights.last().copied().unwrap_or(1).max(1);
            let u = rng.gen_range(0..total);
            weights.partition_point(|&w| w <= u)
        } else {
            rng.gen_range(0..pool.len())
        };
        pool[idx.min(pool.len() - 1)].clone()
    }

    fn random_name(&mut self) -> String {
        Self::pick(
            &mut self.rng,
            &self.names,
            &self.name_weights,
            self.cfg.weighted_labels,
        )
    }

    fn random_term(&mut self) -> String {
        Self::pick(
            &mut self.rng,
            &self.terms,
            &self.term_weights,
            self.cfg.weighted_labels,
        )
    }

    /// Instantiates the pattern AST: `name` placeholders become random
    /// element names, `term` placeholders random terms (as text selectors).
    fn instantiate(&mut self, node: &QueryNode) -> QueryNode {
        match node {
            QueryNode::Name { label, child } => {
                if label == "term" {
                    assert!(child.is_none(), "`term` placeholders cannot have children");
                    QueryNode::Text {
                        word: self.random_term(),
                    }
                } else {
                    let new_label = if label == "name" {
                        self.random_name()
                    } else {
                        label.clone()
                    };
                    QueryNode::Name {
                        label: new_label,
                        child: child.as_ref().map(|c| Box::new(self.instantiate(c))),
                    }
                }
            }
            QueryNode::Text { .. } => node.clone(),
            QueryNode::And(l, r) => {
                QueryNode::And(Box::new(self.instantiate(l)), Box::new(self.instantiate(r)))
            }
            QueryNode::Or(l, r) => {
                QueryNode::Or(Box::new(self.instantiate(l)), Box::new(self.instantiate(r)))
            }
        }
    }

    fn collect_selectors(node: &QueryNode, out: &mut Vec<(NodeType, String)>) {
        match node {
            QueryNode::Name { label, child } => {
                out.push((NodeType::Struct, label.clone()));
                if let Some(c) = child {
                    Self::collect_selectors(c, out);
                }
            }
            QueryNode::Text { word } => out.push((NodeType::Text, word.clone())),
            QueryNode::And(l, r) | QueryNode::Or(l, r) => {
                Self::collect_selectors(l, out);
                Self::collect_selectors(r, out);
            }
        }
    }

    fn cost_in(&mut self, range: (u64, u64)) -> Cost {
        Cost::finite(self.rng.gen_range(range.0..=range.1))
    }

    /// Produces one query from `pattern` together with its cost table.
    ///
    /// # Panics
    /// Panics if `pattern` is not a valid pattern (patterns are parsed
    /// with the ordinary approXQL grammar).
    #[cfg_attr(
        not(test),
        expect(
            clippy::expect_used,
            reason = "the documented `# Panics` contract above"
        )
    )]
    pub fn generate(&mut self, pattern: &str) -> GeneratedQuery {
        let parsed = parse_query(pattern).expect("invalid query pattern");
        let root = self.instantiate(&parsed.root);
        let query = approxql_query::Query { root };

        let mut selectors = Vec::new();
        Self::collect_selectors(&query.root, &mut selectors);

        let mut builder = CostModel::builder().insert_default(1);
        let mut seen = std::collections::HashSet::new();
        for (ty, label) in selectors {
            if !seen.insert((ty, label.clone())) {
                continue;
            }
            let del = self.cost_in(self.cfg.delete_cost_range);
            builder = builder.delete(ty, &label, del);
            let mut used = std::collections::HashSet::new();
            used.insert(label.clone());
            let pool_size = match ty {
                NodeType::Struct => self.names.len(),
                NodeType::Text => self.terms.len(),
            };
            let want = self
                .cfg
                .renamings_per_label
                .min(pool_size.saturating_sub(1));
            let mut attempts = 0;
            while used.len() - 1 < want && attempts < 20 * want.max(1) {
                attempts += 1;
                let target = match ty {
                    NodeType::Struct => self.random_name(),
                    NodeType::Text => self.random_term(),
                };
                if !used.insert(target.clone()) {
                    continue; // duplicate target; resample
                }
                let cost = self.cost_in(self.cfg.rename_cost_range);
                builder = builder.rename(ty, &label, &target, cost);
            }
        }
        GeneratedQuery {
            query: query.to_string(),
            costs: builder.build(),
        }
    }

    /// Produces a batch of queries (the experiments use sets of 10).
    pub fn generate_batch(&mut self, pattern: &str, count: usize) -> Vec<GeneratedQuery> {
        (0..count).map(|_| self.generate(pattern)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{DataGenConfig, DataGenerator};

    fn small_db() -> (DataTree, LabelIndex) {
        let cfg = DataGenConfig {
            element_count: 300,
            element_names: 15,
            vocabulary: 40,
            word_occurrences: 1_200,
            ..DataGenConfig::default()
        };
        let tree = DataGenerator::new(cfg).generate_tree(&CostModel::new());
        let index = LabelIndex::build(&tree);
        (tree, index)
    }

    #[test]
    fn patterns_parse_as_approxql() {
        for p in [PATTERN_1, PATTERN_2, PATTERN_3] {
            assert!(parse_query(p).is_ok(), "pattern does not parse: {p}");
        }
    }

    #[test]
    fn generated_queries_parse_and_have_pattern_shape() {
        let (tree, index) = small_db();
        let mut g = QueryGenerator::new(&tree, &index, QueryGenConfig::default());
        for pattern in [PATTERN_1, PATTERN_2, PATTERN_3] {
            let gq = g.generate(pattern);
            let parsed = parse_query(&gq.query).expect("generated query must parse");
            let pattern_parsed = parse_query(pattern).unwrap();
            assert_eq!(parsed.selector_count(), pattern_parsed.selector_count());
            assert_eq!(parsed.or_count(), pattern_parsed.or_count());
        }
    }

    #[test]
    fn labels_come_from_the_collection() {
        let (tree, index) = small_db();
        let mut g = QueryGenerator::new(&tree, &index, QueryGenConfig::default());
        let gq = g.generate(PATTERN_2);
        let parsed = parse_query(&gq.query).unwrap();
        let mut selectors = Vec::new();
        QueryGenerator::collect_selectors(&parsed.root, &mut selectors);
        for (_, label) in selectors {
            assert!(
                tree.lookup_label(&label).is_some(),
                "label {label} not in collection"
            );
        }
    }

    #[test]
    fn renamings_per_label_is_respected() {
        let (tree, index) = small_db();
        let cfg = QueryGenConfig {
            renamings_per_label: 5,
            ..QueryGenConfig::default()
        };
        let mut g = QueryGenerator::new(&tree, &index, cfg);
        let gq = g.generate(PATTERN_1);
        let parsed = parse_query(&gq.query).unwrap();
        let mut selectors = Vec::new();
        QueryGenerator::collect_selectors(&parsed.root, &mut selectors);
        for (ty, label) in selectors {
            let r = gq.costs.renamings(ty, &label).len();
            // Duplicate random targets may be skipped, but most survive.
            assert!(
                (1..=5).contains(&r),
                "expected 1..=5 renamings for {label}, got {r}"
            );
            assert!(gq.costs.delete_cost(ty, &label).is_finite());
        }
    }

    #[test]
    fn zero_renamings_config() {
        let (tree, index) = small_db();
        let mut g = QueryGenerator::new(&tree, &index, QueryGenConfig::default());
        let gq = g.generate(PATTERN_1);
        assert_eq!(gq.costs.listed_renames().count(), 0);
    }

    #[test]
    fn batch_is_deterministic_under_seed() {
        let (tree, index) = small_db();
        let mut g1 = QueryGenerator::new(&tree, &index, QueryGenConfig::default());
        let mut g2 = QueryGenerator::new(&tree, &index, QueryGenConfig::default());
        let b1: Vec<String> = g1
            .generate_batch(PATTERN_3, 10)
            .into_iter()
            .map(|q| q.query)
            .collect();
        let b2: Vec<String> = g2
            .generate_batch(PATTERN_3, 10)
            .into_iter()
            .map(|q| q.query)
            .collect();
        assert_eq!(b1, b2);
        // And the batch is not 10 copies of one query.
        let distinct: std::collections::HashSet<&String> = b1.iter().collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn cost_file_roundtrips() {
        let (tree, index) = small_db();
        let cfg = QueryGenConfig {
            renamings_per_label: 3,
            ..QueryGenConfig::default()
        };
        let mut g = QueryGenerator::new(&tree, &index, cfg);
        let gq = g.generate(PATTERN_2);
        let text = approxql_cost::write_cost_file(&gq.costs);
        let parsed = approxql_cost::parse_cost_file(&text).unwrap();
        assert_eq!(approxql_cost::write_cost_file(&parsed), text);
    }
}
