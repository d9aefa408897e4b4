//! Microbenchmarks of the list algebra (Section 6.4).

use approxql_core::list::{self, Entry, List};
use approxql_tree::Cost;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds an ancestor list of `n` disjoint intervals and a descendant list
/// with `per` descendants inside each interval.
fn make_lists(n: usize, per: usize) -> (List, List) {
    let mut ancestors = Vec::with_capacity(n);
    let mut descendants = Vec::with_capacity(n * per);
    let mut rng = StdRng::seed_from_u64(9);
    let width = (per as u32 + 2) * 2;
    for i in 0..n as u32 {
        let pre = i * width;
        ancestors.push(Entry {
            pre,
            bound: pre + width - 1,
            pathcost: Cost::finite(2),
            inscost: Cost::finite(1),
            cost_any: Cost::ZERO,
            cost_leaf: Cost::INFINITY,
        });
        for j in 0..per as u32 {
            let dpre = pre + 1 + j * 2;
            let c = rng.gen_range(0..20u64);
            descendants.push(Entry {
                pre: dpre,
                bound: dpre,
                pathcost: Cost::finite(3 + (j % 4) as u64),
                inscost: Cost::finite(1),
                cost_any: Cost::finite(c),
                cost_leaf: Cost::finite(c),
            });
        }
    }
    (ancestors, descendants)
}

fn bench_joins(c: &mut Criterion) {
    let mut group = c.benchmark_group("join");
    for (n, per) in [(1_000usize, 10usize), (10_000, 10)] {
        let (a, d) = make_lists(n, per);
        group.bench_with_input(
            BenchmarkId::new("fold_on_pop", format!("{n}x{per}")),
            &(&a, &d),
            |b, (a, d)| b.iter(|| list::join(a, d, Cost::ZERO)),
        );
    }
    group.finish();
}

fn bench_set_ops(c: &mut Criterion) {
    let (a, d) = make_lists(10_000, 2);
    let mut group = c.benchmark_group("set_ops");
    group.bench_function("intersect_10k", |b| {
        b.iter(|| list::intersect(&a, &a, Cost::ZERO))
    });
    group.bench_function("union_10k", |b| b.iter(|| list::union(&a, &a, Cost::ZERO)));
    group.bench_function("merge_10k", |b| {
        b.iter(|| list::merge(&a, &d, Cost::finite(3)))
    });
    group.bench_function("outerjoin_10k", |b| {
        b.iter(|| list::outerjoin(&a, &d, Cost::ZERO, Cost::finite(5)))
    });
    group.finish();
}

criterion_group!(benches, bench_joins, bench_set_ops);
criterion_main!(benches);
