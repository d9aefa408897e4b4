//! Golden-file tests for the `--explain` plan rendering.
//!
//! The rendering is part of the CLI contract: stable operator ordering
//! (handles ascend in construction order, children indent under their
//! consumer), CSE-shared nodes printed in full exactly once with a
//! `shared ×k` marker and as `(see above)` references thereafter, and
//! per-operator output-entry counts from a real execution. Regenerate a golden file by printing
//! `Database::explain_direct` for the same query and reviewing the diff.

use approxql::{Database, EvalOptions};

const CATALOG: &str = "<catalog>\
    <cd><title>piano concerto</title><composer>rachmaninov</composer></cd>\
    <cd><title>kinderszenen</title>\
        <tracks><track><title>vivace piano</title></track></tracks></cd>\
    </catalog>";

fn catalog() -> Database {
    Database::from_xml_str(CATALOG, approxql::tables::paper_section6_costs()).unwrap()
}

fn explain(query: &str) -> String {
    catalog()
        .explain_direct(query, Some(5), EvalOptions::default())
        .unwrap()
}

#[test]
fn explain_simple_query_matches_golden() {
    assert_eq!(
        explain(r#"cd[title["piano"]]"#),
        include_str!("golden/explain_simple.txt")
    );
}

#[test]
fn explain_figure2_query_matches_golden() {
    assert_eq!(
        explain(r#"cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]"#),
        include_str!("golden/explain_figure2.txt")
    );
}

#[test]
fn explain_is_thread_count_invariant() {
    // Callers may share a database across their own threads (DESIGN.md
    // §9). The counts come from operator *outputs*, so every thread's
    // rendering of an independently built database is the one-thread
    // rendering.
    let query = r#"cd[track[title["piano"]]]"#;
    let base = explain(query);
    let db = catalog();
    for threads in [2usize, 4] {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| db.explain_direct(query, Some(5), EvalOptions::default())))
                .collect();
            for h in handles {
                let got = h.join().unwrap().unwrap();
                assert_eq!(got, base, "explain differs at {threads} threads");
            }
        });
    }
}

#[test]
fn golden_files_show_cse_sharing() {
    // Guard the property the goldens exist to demonstrate: shared subplans
    // are rendered once and referenced thereafter.
    let text = include_str!("golden/explain_figure2.txt");
    assert!(text.contains("shared ×"));
    assert!(text.contains("(see above)"));
    let shared: usize = text.matches("shared ×").count();
    assert!(shared >= 5, "figure-2 query has many shared subplans");
}
