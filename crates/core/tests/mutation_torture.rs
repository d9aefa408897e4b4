//! Mutation crash torture: replay a mixed insert/delete workload through
//! [`DbFile`], crash at *every* backend operation index (in every crash
//! mode), reopen, and require the recovered database to answer a fixed
//! query battery exactly like the per-commit oracle, with a clean
//! integrity check and zero panics.
//!
//! The oracle is built by replaying the committed prefix of the same
//! workload through the same incremental maintenance path in memory, so
//! any divergence is a persistence bug, not an algorithmic one (the
//! incremental-vs-batch equivalence is pinned separately in the library
//! tests). `APPROXQL_TORTURE_SCALE` multiplies the workload (CI runs a
//! larger sweep in release mode).

use approxql_core::{Database, DbFile, EvalOptions, SchemaEvalConfig};
use approxql_cost::Cost;
use approxql_storage::{CrashMode, FaultBackend, FaultConfig, SharedMemBackend, Store};
use approxql_tree::NodeId;
use approxql_xml::{parse_document, Document};
use std::collections::HashMap;

/// One workload step. Deletes address the k-th *live* document at
/// execution time, which is deterministic because both sides replay the
/// identical prefix; a delete whose target does not exist is skipped (on
/// both sides) without a commit.
#[derive(Clone)]
enum MutOp {
    Insert(String),
    Delete(usize),
}

fn scale() -> usize {
    std::env::var("APPROXQL_TORTURE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// The two seed documents the database is created with.
const SEED_DOCS: &[&str] = &[
    "<cd><title>piano sonata</title></cd>",
    "<cd><title>kinderszenen</title><tracks><track><title>vivace piano</title></track></tracks></cd>",
];

/// The store's inline threshold (`approxql_storage`'s crate-private
/// `INLINE_MAX`): values up to it live in their B+-tree leaf entry, longer
/// ones in an out-of-line page run.
const INLINE_MAX: usize = 480;

/// A `cd` with `tracks` tracks, each titled with words of its own. Large
/// enough that its `doc#` segment, the posting lists of its repeated
/// labels and words, and the `meta#` blobs outgrow [`INLINE_MAX`], and
/// wide enough (two fresh words per track, each an `lt#` and a `sec#`
/// key) that the keys of a later small document scatter over many leaves.
fn album(tag: &str, tracks: usize) -> String {
    let mut xml = format!("<cd><title>{tag} piano album</title><tracks>");
    for i in 0..tracks {
        xml += &format!("<track><title>piano etude {tag}{i} opus{tag}{i}</title></track>");
    }
    xml + "</tracks></cd>"
}

/// The mutation workload: inserts reusing known paths, inserts growing
/// the schema (new labels and new label-type paths, at its end and in its
/// middle), documents whose values cross the store's inline threshold in
/// both directions (an album pushes lists out of line, its delete brings
/// them back), and deletes of shifting positions, interleaved.
fn workload() -> Vec<MutOp> {
    let mut ops = vec![
        MutOp::Insert(
            "<cd><title>piano concerto</title><composer>rachmaninov</composer></cd>".into(),
        ),
        MutOp::Insert(album("a", 150)),
        MutOp::Insert("<mc><title>piano</title><track>allegro vivace</track></mc>".into()),
        MutOp::Delete(0),
        MutOp::Insert("<cd><title>cello suite a7 opusa90</title></cd>".into()),
        MutOp::Delete(1),
        MutOp::Insert("<opera><title>figaro</title><aria>voi che sapete</aria></opera>".into()),
        // Album "a": its lists shrink back under the threshold …
        MutOp::Delete(1),
        // … and the next album pushes them out of line again.
        MutOp::Insert(album("b", 120)),
        MutOp::Insert(
            "<cd><title>etude b3</title><tracks><track><title>vivace b90 opusb41</title></track></tracks></cd>"
                .into(),
        ),
        MutOp::Insert("<lied><title>erlkoenig</title><poet>goethe</poet></lied>".into()),
        // A new path under the first class, long after `mc`, `opera` and
        // `lied` took their places behind it: every schema pre after `cd`
        // moves in this commit, and no `sec#` key does.
        MutOp::Insert(
            "<cd><title>piano trio</title><conductor>karajan</conductor></cd>".into(),
        ),
        MutOp::Delete(2),
    ];
    for i in 1..scale() {
        ops.push(MutOp::Insert(format!(
            "<cd><title>round {i} piano</title><composer>gen{i}</composer></cd>"
        )));
        ops.push(MutOp::Insert(album(&format!("r{i}x"), 40)));
        ops.push(MutOp::Insert(format!(
            "<cd><title>etude r{i}x3 opusb{i}</title><composer>gen{i}</composer></cd>"
        )));
        ops.push(MutOp::Insert(format!(
            "<extra{i}><title>novel path {i}</title></extra{i}>"
        )));
        ops.push(MutOp::Delete(i % 3));
    }
    ops
}

fn parse(xml: &str) -> Document {
    parse_document(xml).unwrap()
}

/// The k-th live document root, if any.
fn live_root(db: &Database, k: usize) -> Option<NodeId> {
    db.tree()
        .documents()
        .iter()
        .filter(|d| d.alive)
        .nth(k)
        .map(|d| NodeId(d.start))
}

/// The query battery answered after every commit: known paths, a rebuilt
/// path, approximate matches, and a query over labels that deletes empty.
const QUERIES: &[&str] = &[
    r#"cd[title["piano"]]"#,
    r#"cd[track[title["piano" and "vivace"]]]"#,
    r#"mc[track["allegro"]]"#,
    r#"opera[aria["sapete"]]"#,
    r#"cd[composer]"#,
    r#"cd[conductor["karajan"]]"#,
];

/// Every query's direct and schema results (roots and costs), in a fixed
/// order — the unit of oracle comparison.
fn answers(db: &Database) -> Vec<Vec<(u32, Cost)>> {
    let opts = EvalOptions::default();
    let mut out = Vec::new();
    for q in QUERIES {
        let direct = db.query_direct_with(q, Some(10), opts).unwrap().0;
        let schema = db
            .query_schema_with(q, 10, opts, SchemaEvalConfig::default())
            .unwrap()
            .0;
        for hits in [direct, schema] {
            out.push(hits.into_iter().map(|h| (h.root.0, h.cost)).collect());
        }
    }
    out
}

fn seed_database() -> Database {
    Database::from_xml_strs(SEED_DOCS, approxql_cost::CostModel::new()).unwrap()
}

/// Applies one workload op to a [`DbFile`]; `Ok(false)` means the op was
/// a skipped delete (no commit happened).
fn apply_file(file: &mut DbFile, op: &MutOp) -> Result<bool, approxql_core::DatabaseError> {
    match op {
        MutOp::Insert(xml) => {
            file.insert_documents(&[parse(xml)])?;
            Ok(true)
        }
        MutOp::Delete(k) => match live_root(file.database(), *k) {
            Some(root) => {
                file.delete_document(root)?;
                Ok(true)
            }
            None => Ok(false),
        },
    }
}

/// Replays the workload against a crashing backend, reopens from what
/// survived, and verifies durability, integrity, oracle equality, and
/// that the recovered file still accepts mutations.
fn run_crash_case(
    ops: &[MutOp],
    models: &HashMap<u64, Vec<Vec<(u32, Cost)>>>,
    mode: CrashMode,
    crash_at: u64,
) {
    let shared = SharedMemBackend::new();
    let fb = FaultBackend::new(
        Box::new(shared.clone()),
        FaultConfig {
            crash_after_ops: Some(crash_at),
            mode,
            fail_sync_at: None,
            seed: crash_at ^ 0x5EED,
        },
    );

    // Replay until the crash; track the highest *acknowledged* commit.
    let mut acked: u64 = 0;
    'run: {
        let Ok(store) = Store::create(Box::new(fb)) else {
            break 'run;
        };
        let Ok(mut file) = DbFile::create_in(store, seed_database()) else {
            break 'run;
        };
        acked = file.commit_sequence();
        for op in ops {
            if apply_file(&mut file, op).is_err() {
                break 'run;
            }
            acked = file.commit_sequence();
        }
    }

    // "Power back on": reopen from what actually reached the disk.
    let disk = SharedMemBackend::from(shared.snapshot());
    let mut store = match Store::open(Box::new(disk.clone())) {
        Ok(s) => s,
        Err(e) => {
            assert_eq!(acked, 0, "acknowledged commit {acked} lost entirely: {e}");
            return;
        }
    };
    let csn = store.commit_sequence();
    assert!(
        csn >= acked,
        "crash@{crash_at} {mode:?}: acknowledged commit {acked} rolled back to {csn}"
    );
    // Storage-level integrity always holds on a recovered store.
    store
        .check()
        .unwrap_or_else(|e| panic!("crash@{crash_at} {mode:?}: check failed: {e}"));
    if csn < 2 {
        // The crash preceded the initial full-image commit: an empty (but
        // intact) store is the correct recovery; there is nothing to load.
        assert!(acked < 2, "image commit {acked} acked but rolled back");
        return;
    }

    // Database-level recovery: the full image must load, pass the posting
    // checker, and answer the battery exactly like the commit's oracle.
    approxql_index::persist::check_posting_blocks(&mut store)
        .unwrap_or_else(|e| panic!("crash@{crash_at} {mode:?}: posting check failed: {e}"));
    let mut file = DbFile::open_in(store)
        .unwrap_or_else(|e| panic!("crash@{crash_at} {mode:?}: recovered image unreadable: {e}"));
    let db = file.database();
    db.schema()
        .check_instances(db.tree())
        .unwrap_or_else(|e| panic!("crash@{crash_at} {mode:?}: {e}"));
    let oracle = models
        .get(&csn)
        .unwrap_or_else(|| panic!("crash@{crash_at} {mode:?}: impossible recovered commit {csn}"));
    assert!(
        answers(file.database()) == *oracle,
        "crash@{crash_at} {mode:?}: answers diverge from the commit-{csn} oracle"
    );

    // Livability: the recovered file accepts and persists a new document.
    file.insert_documents(&[parse("<cd><title>post recovery piano</title></cd>")])
        .unwrap();
    drop(file);
    let file = DbFile::open_in(Store::open(Box::new(disk)).unwrap()).unwrap();
    let q = r#"cd[title["piano"]]"#;
    let post = file.database().query_direct(q, None).unwrap();
    let pre_len = oracle[0].len();
    assert_eq!(
        post.len(),
        pre_len + 1,
        "crash@{crash_at} {mode:?}: post-recovery insert not persisted"
    );
}

#[test]
fn crash_at_every_backend_op_recovers_to_a_commit_boundary() {
    let ops = workload();

    // Clean run: build the per-commit oracle and count backend operations.
    let shared = SharedMemBackend::new();
    let fb = FaultBackend::new(Box::new(shared.clone()), FaultConfig::default());
    let ops_counter = fb.op_counter();
    let store = Store::create(Box::new(fb)).unwrap();
    let mut file = DbFile::create_in(store, seed_database()).unwrap();
    let mut models: HashMap<u64, Vec<Vec<(u32, Cost)>>> = HashMap::new();
    // Determinism across thread counts is part of the oracle's meaning.
    models.insert(file.commit_sequence(), answers(file.database()));
    for op in &ops {
        if apply_file(&mut file, op).unwrap() {
            models.insert(file.commit_sequence(), answers(file.database()));
        }
    }
    let committed = file.commit_sequence();
    assert!(
        committed >= 2 + (ops.len() as u64) - 1,
        "workload mostly skipped"
    );
    drop(file);
    // The commits must carry both representations of a value: inline leaf
    // entries and out-of-line runs, for documents and for posting lists.
    let mut store = Store::open(Box::new(shared.snapshot())).unwrap();
    let stored = store.iter_all().unwrap().collect_all().unwrap();
    for prefix in [&b"doc#"[..], b"lt#"] {
        let of_prefix = stored.iter().filter(|(k, _)| k.starts_with(prefix));
        let lens: Vec<usize> = of_prefix.map(|(_, v)| v.len()).collect();
        assert!(
            lens.iter().any(|&n| n > INLINE_MAX) && lens.iter().any(|&n| n <= INLINE_MAX),
            "no {} value on one side of the inline threshold",
            String::from_utf8_lossy(prefix)
        );
    }
    drop(store);
    let total_ops = ops_counter.get();
    eprintln!("sweeping {total_ops} backend ops per crash mode");
    assert!(
        total_ops > 100,
        "workload too small: {total_ops} backend ops"
    );

    // The sweep: every backend-op index, in every crash mode. Debug runs
    // stride the indices to stay fast; `APPROXQL_TORTURE_SCALE > 1` (the
    // CI release sweep) covers every single index.
    let stride = if scale() > 1 { 1 } else { 7 };
    for mode in [
        CrashMode::AfterWrite,
        CrashMode::TornWrite,
        CrashMode::DropWrite,
        CrashMode::LoseUnsynced,
    ] {
        let mut crash_at = 0;
        while crash_at < total_ops {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_crash_case(&ops, &models, mode, crash_at)
            }));
            if outcome.is_err() {
                panic!("panicked at crash index {crash_at} in mode {mode:?}");
            }
            crash_at += stride;
        }
    }
}

#[test]
fn bit_flips_in_a_mutated_store_are_caught_by_check() {
    // Grow a store through mutations, then flip bits in its pages: the
    // full check (storage + postings + image load) must reject every one.
    let dir = std::env::temp_dir().join(format!("axql-mut-flip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.axql");
    {
        let mut file = DbFile::create(&path, seed_database()).unwrap();
        for op in workload() {
            apply_file(&mut file, &op).unwrap();
        }
    }
    Database::check_file(&path).unwrap();
    let base = std::fs::read(&path).unwrap();
    let trials = 40 * scale();
    for trial in 0..trials {
        // Deterministic pseudo-random positions past the header slots.
        let mut x = (trial as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        x ^= x >> 29;
        let pos = 2 * 4096 + (x as usize % (base.len() - 2 * 4096));
        let bit = (x >> 33) % 8;
        let mut corrupted = base.clone();
        corrupted[pos] ^= 1 << bit;
        std::fs::write(&path, &corrupted).unwrap();
        assert!(
            Database::check_file(&path).is_err(),
            "flip at byte {pos} bit {bit} went undetected"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
