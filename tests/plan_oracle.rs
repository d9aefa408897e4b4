//! Byte-identity oracle: the plan-IR evaluators must reproduce the
//! pre-refactor evaluators' results *and* work counters exactly.
//!
//! The vectors below were captured from the tree-walking evaluators
//! immediately before they were replaced by the compiled plan IR (same
//! seeds, same generator): hits as `root:cost` strings, counters as
//! sorted `name=value` strings with the (new) `plan.*` layer filtered
//! out. Tier A uses the plain cost model with distinct-label queries and
//! checks hits + full counter sets; Tier B uses generated cost tables
//! (deletes + 5 renamings per label) and checks hits only. The FIG7
//! entries additionally pin the CSE win: the shared-subplan compile must
//! do strictly fewer `merge` executions than the old per-ancestor
//! re-evaluation (65 for these queries) while returning identical hits.
//!
//! The schema counters (`sctr`) are re-captured from the schema driver
//! that executes its plan once per query and draws second-level queries
//! from candidate streams: the hits are the captured ones, while the
//! counters lose the re-run of the one two-round query, the fetches of
//! the possible-roots count (which records no metric), and the
//! candidates no draw reads. Their `index.secondary_*` counts were
//! re-captured once more when a query's second-level queries began to
//! share one executor: each distinct sub-skeleton is looked up once per
//! query, so two lines (`name051["term1095"]`, 14 → 9 lookups, and
//! `name037["term867"]`, 10 → 6) lose the lookups of repeated
//! sub-skeletons; every other counter and every hit is the captured one.
//! Since the driver stopped drawing in batches, `eval.schema_rounds`
//! stays 0 and leaves every line.

use approxql::crates::core::schema_eval::{best_n_schema, SchemaEvalConfig};
use approxql::crates::core::{direct, EvalOptions};
use approxql::crates::gen::{
    DataGenConfig, DataGenerator, QueryGenConfig, QueryGenerator, PATTERN_1, PATTERN_2,
};
use approxql::crates::index::LabelIndex;
use approxql::crates::schema::Schema;
use approxql::{metrics_snapshot, CostModel, ExpandedQuery, QueryNode};

const ORACLE: &str = r#"TIERA	11	p0	1	name051["term1095"]
  dhits10 ["8691:0", "10572:0", "8680:1", "10495:1", "8647:2", "10220:2", "8636:3"]
  dctr10 ["eval.direct_fetches=2", "eval.direct_runs=1", "index.label_fetches=2", "index.postings_fetched=226", "list.entries_produced=240", "list.fetch_ops=2", "list.outerjoin_ops=1", "list.sort_ops=1"]
  dhitsall_len 7 tail ["8647:2", "10220:2", "8636:3"]
  dctrall ["eval.direct_fetches=2", "eval.direct_runs=1", "index.label_fetches=2", "index.postings_fetched=226", "list.entries_produced=240", "list.fetch_ops=2", "list.outerjoin_ops=1", "list.sort_ops=1"]
  shits ["8691:0", "10572:0", "8680:1", "10495:1", "8647:2", "10220:2", "8636:3"]
  sctr ["eval.schema_runs=1", "eval.second_level_queries=7", "eval.secondary_rows=7", "index.label_fetches=2", "index.postings_fetched=7", "index.secondary_fetches=9", "index.secondary_rows=295", "topk.entries_produced=21", "topk.ops=4"]
TIERA	11	p0	2	name051["term1"]
  dhits10 ["7998:0", "8053:0", "8064:0", "8086:0", "8163:0", "8218:0", "8251:0", "8284:0", "8306:0", "8317:0"]
  dctr10 ["eval.direct_fetches=2", "eval.direct_runs=1", "index.label_fetches=2", "index.postings_fetched=644", "list.entries_produced=753", "list.fetch_ops=2", "list.outerjoin_ops=1", "list.sort_ops=1"]
  dhitsall_len 99 tail ["9252:2", "9461:2", "10220:2"]
  dctrall ["eval.direct_fetches=2", "eval.direct_runs=1", "index.label_fetches=2", "index.postings_fetched=644", "list.entries_produced=842", "list.fetch_ops=2", "list.outerjoin_ops=1", "list.sort_ops=1"]
  shits ["7998:0", "8284:0", "8416:0", "8647:0", "8746:0", "8812:0", "8845:0", "9395:0", "9780:0", "9791:0"]
  sctr ["eval.schema_runs=1", "eval.second_level_queries=3", "eval.secondary_rows=20", "index.label_fetches=2", "index.postings_fetched=76", "index.secondary_fetches=6", "index.secondary_rows=96", "topk.entries_produced=84", "topk.ops=4"]
TIERA	11	p0	3	name037["term867"]
  dhits10 ["3983:0", "3961:1", "3840:2", "3829:3", "3818:4"]
  dctr10 ["eval.direct_fetches=2", "eval.direct_runs=1", "index.label_fetches=2", "index.postings_fetched=243", "list.entries_produced=253", "list.fetch_ops=2", "list.outerjoin_ops=1", "list.sort_ops=1"]
  dhitsall_len 5 tail ["3840:2", "3829:3", "3818:4"]
  dctrall ["eval.direct_fetches=2", "eval.direct_runs=1", "index.label_fetches=2", "index.postings_fetched=243", "list.entries_produced=253", "list.fetch_ops=2", "list.outerjoin_ops=1", "list.sort_ops=1"]
  shits ["3983:0", "3961:1", "3840:2", "3829:3", "3818:4"]
  sctr ["eval.schema_runs=1", "eval.second_level_queries=5", "eval.secondary_rows=5", "index.label_fetches=2", "index.postings_fetched=9", "index.secondary_fetches=6", "index.secondary_rows=240", "topk.entries_produced=19", "topk.ops=4"]
TIERA	11	p1	1	name037[name051["term37708"]]
  dhits10 []
  dctr10 ["eval.direct_fetches=3", "eval.direct_runs=1", "index.label_fetches=3", "index.postings_fetched=463", "list.entries_produced=463", "list.fetch_ops=3", "list.join_ops=1", "list.outerjoin_ops=1", "list.sort_ops=1"]
  dhitsall_len 0 tail []
  dctrall ["eval.direct_fetches=3", "eval.direct_runs=1", "index.label_fetches=3", "index.postings_fetched=463", "list.entries_produced=463", "list.fetch_ops=3", "list.join_ops=1", "list.outerjoin_ops=1", "list.sort_ops=1"]
  shits []
  sctr ["eval.schema_runs=1", "index.label_fetches=3", "index.postings_fetched=10", "topk.entries_produced=10", "topk.ops=6"]
TIERA	11	p1	2	name072[name090["term2575"]]
  dhits10 []
  dctr10 ["eval.direct_fetches=3", "eval.direct_runs=1", "index.label_fetches=3", "index.postings_fetched=114", "list.entries_produced=114", "list.fetch_ops=3", "list.join_ops=1", "list.outerjoin_ops=1", "list.sort_ops=1"]
  dhitsall_len 0 tail []
  dctrall ["eval.direct_fetches=3", "eval.direct_runs=1", "index.label_fetches=3", "index.postings_fetched=114", "list.entries_produced=114", "list.fetch_ops=3", "list.join_ops=1", "list.outerjoin_ops=1", "list.sort_ops=1"]
  shits []
  sctr ["eval.schema_runs=1", "index.label_fetches=3", "index.postings_fetched=13", "topk.entries_produced=13", "topk.ops=6"]
TIERA	11	p1	3	name037[name051["term2868"]]
  dhits10 []
  dctr10 ["eval.direct_fetches=3", "eval.direct_runs=1", "index.label_fetches=3", "index.postings_fetched=463", "list.entries_produced=463", "list.fetch_ops=3", "list.join_ops=1", "list.outerjoin_ops=1", "list.sort_ops=1"]
  dhitsall_len 0 tail []
  dctrall ["eval.direct_fetches=3", "eval.direct_runs=1", "index.label_fetches=3", "index.postings_fetched=463", "list.entries_produced=463", "list.fetch_ops=3", "list.join_ops=1", "list.outerjoin_ops=1", "list.sort_ops=1"]
  shits []
  sctr ["eval.schema_runs=1", "index.label_fetches=3", "index.postings_fetched=10", "topk.entries_produced=10", "topk.ops=6"]
TIERA	11	p2	1	name051[name040["term7398" and ("term1633" or "term2575")]]
  dhits10 []
  dctr10 ["eval.direct_fetches=5", "eval.direct_runs=1", "index.label_fetches=5", "index.postings_fetched=294", "list.entries_produced=294", "list.fetch_ops=5", "list.intersect_ops=1", "list.join_ops=1", "list.outerjoin_ops=3", "list.shift_ops=1", "list.sort_ops=1", "list.union_ops=1"]
  dhitsall_len 0 tail []
  dctrall ["eval.direct_fetches=5", "eval.direct_runs=1", "index.label_fetches=5", "index.postings_fetched=294", "list.entries_produced=294", "list.fetch_ops=5", "list.intersect_ops=1", "list.join_ops=1", "list.outerjoin_ops=3", "list.shift_ops=1", "list.sort_ops=1", "list.union_ops=1"]
  shits []
  sctr ["eval.schema_runs=1", "index.label_fetches=5", "index.postings_fetched=14", "topk.entries_produced=14", "topk.ops=13"]
TIERA	11	p2	2	name021[name049["term6532" and ("term96" or "term86")]]
  dhits10 []
  dctr10 ["eval.direct_fetches=5", "eval.direct_runs=1", "index.label_fetches=5", "index.postings_fetched=29", "list.entries_produced=31", "list.fetch_ops=5", "list.intersect_ops=1", "list.join_ops=1", "list.outerjoin_ops=3", "list.shift_ops=1", "list.sort_ops=1", "list.union_ops=1"]
  dhitsall_len 0 tail []
  dctrall ["eval.direct_fetches=5", "eval.direct_runs=1", "index.label_fetches=5", "index.postings_fetched=29", "list.entries_produced=31", "list.fetch_ops=5", "list.intersect_ops=1", "list.join_ops=1", "list.outerjoin_ops=3", "list.shift_ops=1", "list.sort_ops=1", "list.union_ops=1"]
  shits []
  sctr ["eval.schema_runs=1", "index.label_fetches=5", "index.postings_fetched=20", "topk.entries_produced=20", "topk.ops=13"]
TIERA	11	p2	3	name003[name000["term1913" and ("term360" or "term4")]]
  dhits10 []
  dctr10 ["eval.direct_fetches=5", "eval.direct_runs=1", "index.label_fetches=5", "index.postings_fetched=185", "list.entries_produced=194", "list.fetch_ops=5", "list.intersect_ops=1", "list.join_ops=1", "list.outerjoin_ops=3", "list.shift_ops=1", "list.sort_ops=1", "list.union_ops=1"]
  dhitsall_len 0 tail []
  dctrall ["eval.direct_fetches=5", "eval.direct_runs=1", "index.label_fetches=5", "index.postings_fetched=185", "list.entries_produced=194", "list.fetch_ops=5", "list.intersect_ops=1", "list.join_ops=1", "list.outerjoin_ops=3", "list.shift_ops=1", "list.sort_ops=1", "list.union_ops=1"]
  shits []
  sctr ["eval.schema_runs=1", "index.label_fetches=5", "index.postings_fetched=60", "topk.entries_produced=64", "topk.ops=13"]
TIERB	11	p1	0	name037[name074["term55"]]
  dhits10 ["3939:2", "5864:2", "5875:2", "3917:3", "5842:3", "8416:3", "9164:3", "3840:4", "3884:4", "3994:4"]
  shits ["3939:2", "5864:2", "5875:2", "3917:3", "5842:3", "8416:3", "9164:3", "4159:4", "4522:4", "4654:4"]
TIERB	11	p1	1	name037[name037["term2"]]
  dhits10 ["3818:0", "3829:0", "3851:0", "3961:0", "4027:0", "4038:0", "4104:0", "4148:0", "4170:0", "4247:0"]
  shits ["3818:0", "3829:0", "4027:0", "4148:0", "4313:0", "4412:0", "4522:0", "4654:0", "4852:0", "5776:0"]
TIERB	11	p1	2	name040[name090["term0"]]
  dhits10 ["6612:3", "6634:3", "6645:3", "6656:3", "6678:3", "6700:3", "6711:3", "6722:3", "6733:3", "6766:3"]
  shits ["6612:3", "6634:3", "6645:3", "6722:3", "6810:3", "6865:3", "6920:3", "7085:3", "7382:3", "7393:3"]
TIERB	11	p2	0	name037[name074["term55" and ("term11341" or "term0")]]
  dhits10 ["3939:2", "5875:2", "3818:3", "3851:3", "3884:3", "3906:3", "3917:3", "3950:3", "3961:3", "3983:3"]
  shits ["3939:2", "5875:2", "3818:3", "4148:3", "4852:3", "4863:3", "5149:3", "5160:3", "5303:3", "5776:3"]
TIERB	11	p2	1	name037[name090["term1419" and ("term203" or "term121")]]
  dhits10 ["4148:7", "3818:8", "4654:8", "3202:9", "3609:9", "3147:10", "3510:10", "4940:10", "3004:11", "3257:11"]
  shits ["4148:7", "3818:8", "4654:8", "3202:9", "3609:9", "3147:10", "3510:10", "4940:10", "3004:11", "3257:11"]
TIERB	11	p2	2	name037[name071["term287" and ("term3068" or "term0")]]
  dhits10 ["3818:6", "3840:6", "3851:6", "3917:6", "3961:6", "4027:6", "4038:6", "4104:6", "4159:6", "4170:6"]
  shits ["3818:6", "3840:6", "4027:6", "4159:6", "4313:6", "4412:6", "4522:6", "4852:6", "5149:6", "5776:6"]
TIERA	12	p0	1	name060["term4"]
  dhits10 ["188:0", "3873:0", "6733:0", "9043:0", "10616:0"]
  dctr10 ["eval.direct_fetches=2", "eval.direct_runs=1", "index.label_fetches=2", "index.postings_fetched=181", "list.entries_produced=191", "list.fetch_ops=2", "list.outerjoin_ops=1", "list.sort_ops=1"]
  dhitsall_len 5 tail ["6733:0", "9043:0", "10616:0"]
  dctrall ["eval.direct_fetches=2", "eval.direct_runs=1", "index.label_fetches=2", "index.postings_fetched=181", "list.entries_produced=191", "list.fetch_ops=2", "list.outerjoin_ops=1", "list.sort_ops=1"]
  shits ["188:0", "3873:0", "6733:0", "9043:0", "10616:0"]
  sctr ["eval.schema_runs=1", "eval.second_level_queries=3", "eval.secondary_rows=5", "index.label_fetches=2", "index.postings_fetched=97", "index.secondary_fetches=6", "index.secondary_rows=18", "topk.entries_produced=103", "topk.ops=4"]
TIERA	12	p0	2	name020["term0"]
  dhits10 ["78:0", "111:0", "133:0", "551:0", "562:0", "848:0", "881:0", "1750:0", "2949:0", "2960:0"]
  dctr10 ["eval.direct_fetches=2", "eval.direct_runs=1", "index.label_fetches=2", "index.postings_fetched=871", "list.entries_produced=915", "list.fetch_ops=2", "list.outerjoin_ops=1", "list.sort_ops=1"]
  dhitsall_len 34 tail ["10319:1", "10374:1", "10484:1"]
  dctrall ["eval.direct_fetches=2", "eval.direct_runs=1", "index.label_fetches=2", "index.postings_fetched=871", "list.entries_produced=939", "list.fetch_ops=2", "list.outerjoin_ops=1", "list.sort_ops=1"]
  shits ["78:0", "111:0", "551:0", "562:0", "881:0", "3697:0", "3895:0", "3917:0", "10385:0", "10429:0"]
  sctr ["eval.schema_runs=1", "eval.second_level_queries=2", "eval.secondary_rows=11", "index.label_fetches=2", "index.postings_fetched=188", "index.secondary_fetches=4", "index.secondary_rows=35", "topk.entries_produced=193", "topk.ops=4"]
TIERA	12	p0	3	name053["term254"]
  dhits10 []
  dctr10 ["eval.direct_fetches=2", "eval.direct_runs=1", "index.label_fetches=2", "index.postings_fetched=28", "list.entries_produced=28", "list.fetch_ops=2", "list.outerjoin_ops=1", "list.sort_ops=1"]
  dhitsall_len 0 tail []
  dctrall ["eval.direct_fetches=2", "eval.direct_runs=1", "index.label_fetches=2", "index.postings_fetched=28", "list.entries_produced=28", "list.fetch_ops=2", "list.outerjoin_ops=1", "list.sort_ops=1"]
  shits []
  sctr ["eval.schema_runs=1", "index.label_fetches=2", "index.postings_fetched=6", "topk.entries_produced=6", "topk.ops=4"]
TIERA	12	p1	1	name060[name018["term3844"]]
  dhits10 []
  dctr10 ["eval.direct_fetches=3", "eval.direct_runs=1", "index.label_fetches=3", "index.postings_fetched=29", "list.entries_produced=29", "list.fetch_ops=3", "list.join_ops=1", "list.outerjoin_ops=1", "list.sort_ops=1"]
  dhitsall_len 0 tail []
  dctrall ["eval.direct_fetches=3", "eval.direct_runs=1", "index.label_fetches=3", "index.postings_fetched=29", "list.entries_produced=29", "list.fetch_ops=3", "list.join_ops=1", "list.outerjoin_ops=1", "list.sort_ops=1"]
  shits []
  sctr ["eval.schema_runs=1", "index.label_fetches=3", "index.postings_fetched=9", "topk.entries_produced=9", "topk.ops=6"]
TIERA	12	p1	2	name048[name020["term15268"]]
  dhits10 []
  dctr10 ["eval.direct_fetches=3", "eval.direct_runs=1", "index.label_fetches=3", "index.postings_fetched=219", "list.entries_produced=219", "list.fetch_ops=3", "list.join_ops=1", "list.outerjoin_ops=1", "list.sort_ops=1"]
  dhitsall_len 0 tail []
  dctrall ["eval.direct_fetches=3", "eval.direct_runs=1", "index.label_fetches=3", "index.postings_fetched=219", "list.entries_produced=219", "list.fetch_ops=3", "list.join_ops=1", "list.outerjoin_ops=1", "list.sort_ops=1"]
  shits []
  sctr ["eval.schema_runs=1", "index.label_fetches=3", "index.postings_fetched=17", "topk.entries_produced=17", "topk.ops=6"]
TIERA	12	p1	3	name013[name048["term1586"]]
  dhits10 []
  dctr10 ["eval.direct_fetches=3", "eval.direct_runs=1", "index.label_fetches=3", "index.postings_fetched=199", "list.entries_produced=199", "list.fetch_ops=3", "list.join_ops=1", "list.outerjoin_ops=1", "list.sort_ops=1"]
  dhitsall_len 0 tail []
  dctrall ["eval.direct_fetches=3", "eval.direct_runs=1", "index.label_fetches=3", "index.postings_fetched=199", "list.entries_produced=199", "list.fetch_ops=3", "list.join_ops=1", "list.outerjoin_ops=1", "list.sort_ops=1"]
  shits []
  sctr ["eval.schema_runs=1", "index.label_fetches=3", "index.postings_fetched=15", "topk.entries_produced=15", "topk.ops=6"]
TIERA	12	p2	1	name060[name018["term3844" and ("term4" or "term1329")]]
  dhits10 []
  dctr10 ["eval.direct_fetches=5", "eval.direct_runs=1", "index.label_fetches=5", "index.postings_fetched=199", "list.entries_produced=215", "list.fetch_ops=5", "list.intersect_ops=1", "list.join_ops=1", "list.outerjoin_ops=3", "list.shift_ops=1", "list.sort_ops=1", "list.union_ops=1"]
  dhitsall_len 0 tail []
  dctrall ["eval.direct_fetches=5", "eval.direct_runs=1", "index.label_fetches=5", "index.postings_fetched=199", "list.entries_produced=215", "list.fetch_ops=5", "list.intersect_ops=1", "list.join_ops=1", "list.outerjoin_ops=3", "list.shift_ops=1", "list.sort_ops=1", "list.union_ops=1"]
  shits []
  sctr ["eval.schema_runs=1", "index.label_fetches=5", "index.postings_fetched=105", "topk.entries_produced=105", "topk.ops=13"]
TIERA	12	p2	2	name043[name063["term0" and ("term41873" or "term1586")]]
  dhits10 []
  dctr10 ["eval.direct_fetches=5", "eval.direct_runs=1", "index.label_fetches=5", "index.postings_fetched=872", "list.entries_produced=883", "list.fetch_ops=5", "list.intersect_ops=1", "list.join_ops=1", "list.outerjoin_ops=3", "list.shift_ops=1", "list.sort_ops=1", "list.union_ops=1"]
  dhitsall_len 0 tail []
  dctrall ["eval.direct_fetches=5", "eval.direct_runs=1", "index.label_fetches=5", "index.postings_fetched=872", "list.entries_produced=883", "list.fetch_ops=5", "list.intersect_ops=1", "list.join_ops=1", "list.outerjoin_ops=3", "list.shift_ops=1", "list.sort_ops=1", "list.union_ops=1"]
  shits []
  sctr ["eval.schema_runs=1", "index.label_fetches=5", "index.postings_fetched=191", "topk.entries_produced=191", "topk.ops=13"]
TIERA	12	p2	3	name048[name065["term19" and ("term32" or "term68928")]]
  dhits10 []
  dctr10 ["eval.direct_fetches=5", "eval.direct_runs=1", "index.label_fetches=5", "index.postings_fetched=263", "list.entries_produced=264", "list.fetch_ops=5", "list.intersect_ops=1", "list.join_ops=1", "list.outerjoin_ops=3", "list.shift_ops=1", "list.sort_ops=1", "list.union_ops=1"]
  dhitsall_len 0 tail []
  dctrall ["eval.direct_fetches=5", "eval.direct_runs=1", "index.label_fetches=5", "index.postings_fetched=263", "list.entries_produced=264", "list.fetch_ops=5", "list.intersect_ops=1", "list.join_ops=1", "list.outerjoin_ops=3", "list.shift_ops=1", "list.sort_ops=1", "list.union_ops=1"]
  shits []
  sctr ["eval.schema_runs=1", "index.label_fetches=5", "index.postings_fetched=81", "topk.entries_produced=81", "topk.ops=13"]
TIERB	12	p1	0	name061[name043["term435"]]
  dhits10 ["1486:7", "1508:7", "2388:7", "2476:7", "3147:7", "4467:7", "5534:7", "6931:7", "7855:7", "8251:7"]
  shits ["1486:7", "1508:7", "2388:7", "2476:7", "4467:7", "5534:7", "6931:7", "7855:7", "8251:7", "9736:7"]
TIERB	12	p1	1	name066[name005["term49"]]
  dhits10 ["6546:5", "10759:5", "10979:5", "6513:6", "10748:6", "10946:6", "2168:7", "4621:7", "6502:7", "10693:7"]
  shits ["6546:5", "10759:5", "10979:5", "6513:6", "10748:6", "10946:6", "2168:7", "4621:7", "6502:7", "10693:7"]
TIERB	12	p1	2	name047[name048["term14"]]
  dhits10 ["9076:4", "23:6", "2454:6", "7360:6", "12:7", "2366:7", "2619:7", "4148:7", "4775:7", "4973:7"]
  shits ["9076:4", "23:6", "2454:6", "7360:6", "12:7", "2366:7", "4148:7", "4775:7", "6304:7", "9439:7"]
TIERB	12	p2	0	name061[name043["term435" and ("term9718" or "term0")]]
  dhits10 ["4467:8", "100:9", "595:9", "628:9", "892:9", "903:9", "1761:9", "3730:9", "3950:9", "3961:9"]
  shits ["4467:8", "100:9", "595:9", "628:9", "892:9", "903:9", "3730:9", "3950:9", "10275:9", "10495:9"]
TIERB	12	p2	1	name046[name075["term4523" and ("term1038" or "term6")]]
  dhits10 ["2267:12", "10143:12", "10154:12", "298:13", "1893:13", "1937:13", "2047:13", "2058:13", "2157:13", "2201:13"]
  shits ["2267:12", "10143:12", "10154:12", "298:13", "1893:13", "2157:13", "5424:13", "8460:13", "8559:13", "8878:13"]
TIERB	12	p2	2	name020[name015["term0" and ("term324" or "term47219")]]
  dhits10 ["133:7", "3895:7", "4170:7", "10385:7", "56:8", "111:8", "848:8", "1750:8", "3917:8", "4291:8"]
  shits ["133:7", "3895:7", "4170:7", "10385:7", "56:8", "111:8", "848:8", "3917:8", "10374:8", "10429:8"]
FIG7	0	name034[name034["term1445"]]
  hits ["5182:0", "5171:1", "45:2", "78:2", "133:2", "144:2", "177:2", "210:2", "276:2", "287:2"]
  ctr ["eval.direct_fetches=12", "eval.direct_runs=1", "index.label_fetches=12", "index.postings_fetched=1155", "list.entries_produced=36853", "list.fetch_ops=12", "list.join_ops=6", "list.merge_ops=65", "list.outerjoin_ops=6", "list.shift_ops=6", "list.sort_ops=1", "list.union_ops=6"]
FIG7	1	name034[name034["term0"]]
  hits ["45:0", "78:0", "133:0", "144:0", "155:0", "177:0", "210:0", "276:0", "287:0", "353:0"]
  ctr ["eval.direct_fetches=12", "eval.direct_runs=1", "index.label_fetches=12", "index.postings_fetched=1191", "list.entries_produced=38312", "list.fetch_ops=12", "list.join_ops=6", "list.merge_ops=65", "list.outerjoin_ops=6", "list.shift_ops=6", "list.sort_ops=1", "list.union_ops=6"]
"#;

/// `key line` → `field name` → captured value (the rest of the line).
type Oracle = std::collections::HashMap<String, std::collections::HashMap<String, String>>;

fn parse_oracle() -> Oracle {
    let mut out = Oracle::new();
    let mut current = String::new();
    for line in ORACLE.lines() {
        if line.trim().is_empty() {
            continue;
        }
        if let Some(field) = line.strip_prefix("  ") {
            let (name, value) = field.split_once(' ').expect("malformed oracle field");
            out.get_mut(&current)
                .expect("field before record")
                .insert(name.to_string(), value.to_string());
        } else {
            current = line.to_string();
            out.insert(current.clone(), Default::default());
        }
    }
    out
}

fn field<'a>(oracle: &'a Oracle, key: &str, name: &str) -> &'a str {
    oracle
        .get(key)
        .unwrap_or_else(|| panic!("generated query drifted from captured oracle: {key}"))
        .get(name)
        .unwrap_or_else(|| panic!("missing oracle field {name} for {key}"))
}

/// Same filter the capture harness used: every (type, label) pair in the
/// query occurs once, so Tier A counter sets are independent of fetch
/// dedup order.
fn distinct_labels(q: &QueryNode) -> bool {
    fn collect(n: &QueryNode, out: &mut Vec<(bool, String)>) {
        match n {
            QueryNode::Name { label, child } => {
                out.push((false, label.clone()));
                if let Some(c) = child {
                    collect(c, out);
                }
            }
            QueryNode::Text { word } => out.push((true, word.clone())),
            QueryNode::And(l, r) | QueryNode::Or(l, r) => {
                collect(l, out);
                collect(r, out);
            }
        }
    }
    let mut v = Vec::new();
    collect(q, &mut v);
    let n = v.len();
    v.sort();
    v.dedup();
    v.len() == n
}

/// Nonzero counters as sorted `name=value` strings, with the plan and
/// postings layers (which did not exist at capture time) filtered out.
fn counters_str(d: &approxql::MetricsSnapshot) -> Vec<String> {
    let mut v: Vec<String> = d
        .counters()
        .filter(|&(m, c)| {
            c > 0 && !m.name().starts_with("plan.") && !m.name().starts_with("postings.")
        })
        .map(|(m, c)| format!("{}={}", m.name(), c))
        .collect();
    v.sort();
    v
}

fn counter_map(d: &approxql::MetricsSnapshot) -> std::collections::HashMap<String, u64> {
    d.counters()
        .filter(|&(_, c)| c > 0)
        .map(|(m, c)| (m.name().to_string(), c))
        .collect()
}

fn hits_str(hits: &[(u32, approxql::Cost)]) -> Vec<String> {
    hits.iter().map(|(r, c)| format!("{r}:{c}")).collect()
}

#[test]
fn tier_a_hits_and_counters_match_pre_refactor_oracle() {
    let oracle = parse_oracle();
    for tree_seed in [11u64, 12] {
        let mut cfg = DataGenConfig::paper_scale_divided(1000);
        cfg.seed = tree_seed;
        let plain = CostModel::new();
        let tree = DataGenerator::new(cfg).generate_tree(&plain);
        let index = LabelIndex::build(&tree);
        let schema = Schema::build(&tree, &plain);

        for (pname, pattern) in [("p0", "name[term]"), ("p1", PATTERN_1), ("p2", PATTERN_2)] {
            let qcfg = QueryGenConfig {
                renamings_per_label: 0,
                seed: tree_seed * 100,
                ..QueryGenConfig::default()
            };
            let mut qgen = QueryGenerator::new(&tree, &index, qcfg);
            let mut taken = 0;
            for gq in qgen.generate_batch(pattern, 12) {
                let q = approxql::parse_query(&gq.query).unwrap();
                if !distinct_labels(&q.root) {
                    continue;
                }
                taken += 1;
                if taken > 3 {
                    break;
                }
                let key = format!("TIERA\t{tree_seed}\t{pname}\t{taken}\t{}", gq.query);
                let ex = ExpandedQuery::build(&q, &plain);
                let opts = EvalOptions::default();
                let b = metrics_snapshot();
                let (dh, _) = direct::best_n(&ex, &index, tree.interner(), Some(10), opts);
                let dd = metrics_snapshot().diff(&b);
                assert_eq!(
                    format!("{:?}", hits_str(&dh)),
                    field(&oracle, &key, "dhits10"),
                    "direct best-10 hits: {key}"
                );
                assert_eq!(
                    format!("{:?}", counters_str(&dd)),
                    field(&oracle, &key, "dctr10"),
                    "direct best-10 counters: {key}"
                );
                let b = metrics_snapshot();
                let (da, _) = direct::best_n(&ex, &index, tree.interner(), None, opts);
                let dda = metrics_snapshot().diff(&b);
                assert_eq!(
                    format!(
                        "{} tail {:?}",
                        da.len(),
                        hits_str(&da[da.len().saturating_sub(3)..])
                    ),
                    field(&oracle, &key, "dhitsall_len"),
                    "direct unbounded hits: {key}"
                );
                assert_eq!(
                    format!("{:?}", counters_str(&dda)),
                    field(&oracle, &key, "dctrall"),
                    "direct unbounded counters: {key}"
                );
                let b = metrics_snapshot();
                let (sh, _) = best_n_schema(
                    &ex,
                    &schema,
                    tree.interner(),
                    10,
                    opts,
                    SchemaEvalConfig::default(),
                );
                let sd = metrics_snapshot().diff(&b);
                assert_eq!(
                    format!("{:?}", hits_str(&sh)),
                    field(&oracle, &key, "shits"),
                    "schema best-10 hits: {key}"
                );
                assert_eq!(
                    format!("{:?}", counters_str(&sd)),
                    field(&oracle, &key, "sctr"),
                    "schema best-10 counters: {key}"
                );
            }
            assert!(taken >= 3, "oracle capture took 3 queries per pattern");
        }
    }
}

#[test]
fn tier_b_renaming_hits_match_pre_refactor_oracle() {
    let oracle = parse_oracle();
    for tree_seed in [11u64, 12] {
        let mut cfg = DataGenConfig::paper_scale_divided(1000);
        cfg.seed = tree_seed;
        let plain = CostModel::new();
        let tree = DataGenerator::new(cfg).generate_tree(&plain);
        let index = LabelIndex::build(&tree);
        let schema = Schema::build(&tree, &plain);

        for (pname, pattern) in [("p1", PATTERN_1), ("p2", PATTERN_2)] {
            let qcfg = QueryGenConfig {
                renamings_per_label: 5,
                seed: tree_seed * 100 + 7,
                ..QueryGenConfig::default()
            };
            let mut qgen = QueryGenerator::new(&tree, &index, qcfg);
            for (i, gq) in qgen.generate_batch(pattern, 3).into_iter().enumerate() {
                let key = format!("TIERB\t{tree_seed}\t{pname}\t{i}\t{}", gq.query);
                let q = approxql::parse_query(&gq.query).unwrap();
                let ex = ExpandedQuery::build(&q, &gq.costs);
                let opts = EvalOptions::default();
                let (dh, _) = direct::best_n(&ex, &index, tree.interner(), Some(10), opts);
                assert_eq!(
                    format!("{:?}", hits_str(&dh)),
                    field(&oracle, &key, "dhits10"),
                    "direct best-10 hits: {key}"
                );
                let (sh, _) = best_n_schema(
                    &ex,
                    &schema,
                    tree.interner(),
                    10,
                    opts,
                    SchemaEvalConfig::default(),
                );
                assert_eq!(
                    format!("{:?}", hits_str(&sh)),
                    field(&oracle, &key, "shits"),
                    "schema best-10 hits: {key}"
                );
            }
        }
    }
}

#[test]
fn cse_beats_pre_refactor_merge_counts_on_renaming_queries() {
    // The old walk re-evaluated each child's renaming merge chain once per
    // outer ancestor renaming: 65 merges for these 5-renaming pattern-1
    // queries. CSE compiles the chain once, so merges must drop strictly
    // while hits stay identical.
    let oracle = parse_oracle();
    let mut cfg = DataGenConfig::paper_scale_divided(2000);
    cfg.seed = 2002;
    let costs = CostModel::new();
    let tree = DataGenerator::new(cfg).generate_tree(&costs);
    let index = LabelIndex::build(&tree);
    let qcfg = QueryGenConfig {
        renamings_per_label: 5,
        seed: 2002 + 5,
        ..QueryGenConfig::default()
    };
    let mut qgen = QueryGenerator::new(&tree, &index, qcfg);
    for (i, gq) in qgen.generate_batch(PATTERN_1, 2).into_iter().enumerate() {
        let key = format!("FIG7\t{i}\t{}", gq.query);
        let q = approxql::parse_query(&gq.query).unwrap();
        let ex = ExpandedQuery::build(&q, &gq.costs);
        let b = metrics_snapshot();
        let (dh, _) = direct::best_n(
            &ex,
            &index,
            tree.interner(),
            Some(10),
            EvalOptions::default(),
        );
        let d = metrics_snapshot().diff(&b);
        assert_eq!(
            format!("{:?}", hits_str(&dh)),
            field(&oracle, &key, "hits"),
            "hits: {key}"
        );
        let new = counter_map(&d);
        assert!(
            new.get("plan.cse_reuses").copied().unwrap_or(0) > 0,
            "{key}"
        );
        // Every captured list-op counter, parsed from `["name=v", ...]`.
        let old: std::collections::HashMap<&str, u64> = field(&oracle, &key, "ctr")
            .trim_matches(|c| c == '[' || c == ']')
            .split(", ")
            .map(|s| s.trim_matches('"').split_once('=').unwrap())
            .map(|(k, v)| (k, v.parse().unwrap()))
            .collect();
        for (name, &old_v) in &old {
            if !name.starts_with("list.") {
                continue;
            }
            let new_v = new.get(*name).copied().unwrap_or(0);
            assert!(new_v <= old_v, "{key}: {name} regressed {old_v} -> {new_v}");
        }
        assert!(
            new["list.merge_ops"] < old["list.merge_ops"],
            "{key}: CSE must strictly reduce merges ({} -> {})",
            old["list.merge_ops"],
            new["list.merge_ops"]
        );
    }
}
