//! Microbenchmarks of the list algebra, once per cost domain: the
//! two-channel minimum of the data lists (Section 6.4) and the k-best
//! candidates of the schema lists (Section 7.2) at k = 8.

use approxql_core::list::{Algebra, Channels, CostDomain, LazyList, List, TwoChannel};
use approxql_core::topk::{Candidate, KBest};
use approxql_index::{LabelIndex, Posting};
use approxql_plan::PlanAlgebra;
use approxql_tree::{Cost, Interner, LabelId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds an ancestor list of `n` disjoint intervals and a descendant list
/// with `per` descendants inside each interval; `value` turns a
/// descendant's random cost into the domain's value.
fn make_lists<D: CostDomain>(
    dom: &D,
    n: usize,
    per: usize,
    value: impl Fn(Cost) -> D::V,
) -> (LazyList<'static, D::V>, LazyList<'static, D::V>) {
    let mut ancestors: List<D::V> = Vec::with_capacity(n);
    let mut descendants: List<D::V> = Vec::with_capacity(n * per);
    let mut rng = StdRng::seed_from_u64(9);
    let width = (per as u32 + 2) * 2;
    let node = |pre, bound, pathcost| Posting {
        pre,
        bound,
        pathcost: Cost::finite(pathcost),
        inscost: Cost::finite(1),
    };
    for i in 0..n as u32 {
        let pre = i * width;
        ancestors.push((node(pre, pre + width - 1, 2), dom.seed(LabelId(0), false)));
        for j in 0..per as u32 {
            let dpre = pre + 1 + j * 2;
            let c = Cost::finite(rng.gen_range(0..20u64));
            descendants.push((node(dpre, dpre, 3 + (j % 4) as u64), value(c)));
        }
    }
    (LazyList::Mat(ancestors), LazyList::Mat(descendants))
}

fn bench_domain<D: CostDomain>(
    c: &mut Criterion,
    name: &str,
    domain: D,
    value: impl Fn(Cost) -> D::V + Copy,
) {
    let (index, interner) = (LabelIndex::default(), Interner::new());
    let alg = Algebra {
        index: &index,
        interner: &interner,
        domain,
    };
    let mut group = c.benchmark_group(format!("join/{name}"));
    for (n, per) in [(1_000usize, 10usize), (10_000, 10)] {
        let lists = make_lists(&alg.domain, n, per, value);
        group.bench_with_input(
            BenchmarkId::new("fold_on_pop", format!("{n}x{per}")),
            &lists,
            |b, (a, d)| b.iter(|| alg.join(a, d)),
        );
    }
    group.finish();

    let (a, d) = make_lists(&alg.domain, 10_000, 2, value);
    let mut group = c.benchmark_group(format!("set_ops/{name}"));
    group.bench_function("intersect_10k", |b| b.iter(|| alg.intersect(&a, &a)));
    group.bench_function("union_10k", |b| b.iter(|| alg.union(&a, &a)));
    group.bench_function("merge_10k", |b| {
        b.iter(|| alg.merge(&a, &d, Cost::finite(3)))
    });
    group.bench_function("outerjoin_10k", |b| {
        b.iter(|| alg.outerjoin(&a, &d, Cost::finite(5)))
    });
    group.finish();
}

fn bench_data(c: &mut Criterion) {
    bench_domain(c, "data", TwoChannel, |c| Channels { any: c, leaf: c });
}

fn bench_k_best(c: &mut Criterion) {
    // Three embeddings per descendant, so joins and unions hit the cap.
    bench_domain(c, "k8", KBest { k: 8 }, |c| {
        (0..3u64)
            .map(|i| Candidate {
                cost: c + Cost::finite(i),
                has_leaf: true,
                label: LabelId(1),
                children: Vec::new(),
            })
            .collect()
    });
}

criterion_group!(benches, bench_data, bench_k_best);
criterion_main!(benches);
