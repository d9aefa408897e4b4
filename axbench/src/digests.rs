//! Committed result digests (`digests.tsv`): a run at a committed
//! (workload, seed, scale) must reproduce its digest. The warm workloads'
//! query sets do not depend on the seed (`*`); where the seed draws the
//! queries only seed 2002 is committed and any other digest is printed.

use crate::report::Report;
use crate::Ctx;

const COMMITTED: &str = include_str!("../digests.tsv");

fn scale(ctx: &Ctx) -> &'static str {
    if ctx.smoke {
        "smoke"
    } else {
        "full"
    }
}

/// The committed digest of `(workload, seed, scale)`, if there is one.
fn committed(workload: &str, seed: u64, scale: &str) -> Option<u64> {
    COMMITTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            (f.len() == 4
                && f[0] == workload
                && (f[1] == "*" || f[1] == seed.to_string())
                && f[2] == scale)
                .then(|| u64::from_str_radix(f[3], 16).ok())
                .flatten()
        })
}

pub fn check(report: &mut Report, workload: &str, ctx: &Ctx, digest: u64) {
    eprintln!(
        "# digest\t{workload}\t{}\t{}\t{digest:016x}",
        ctx.seed,
        scale(ctx)
    );
    if let Some(want) = committed(workload, ctx.seed, scale(ctx)) {
        report.check(digest == want, || {
            format!("result digest {digest:016x} differs from the committed {want:016x}")
        });
    }
}
