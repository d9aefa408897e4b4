//! A query reads only its own lists and its hits' segments, so corruption
//! is found where it is read: one planted value per keyspace a query
//! reads lazily (`ls#`, `lt#`, `sec#`, `doc#`), each with every page
//! checksum intact. The query that reads it exits 3 with the typed error,
//! a query that does not succeeds, and `check`, which reads everything,
//! exits 3.

use approxql_storage::{seal_page, PAGE_SIZE};
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_approxql");

/// Runs `approxql <args>`: exit code, stdout, stderr.
fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let done = Command::new(BIN).args(args).output().unwrap();
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (done.status.code(), text(&done.stdout), text(&done.stderr))
}

/// Rewrites the inline value of the one key of `db` that starts with
/// `prefix` and is `key_len` bytes long — the leaf entry `klen u16 | key |
/// vlen u32 | value` — through `damage`, and re-seals its page.
fn plant(db: &Path, prefix: &[u8], key_len: usize, damage: fn(&mut [u8])) {
    let mut bytes = std::fs::read(db).unwrap();
    let mut entry = (key_len as u16).to_le_bytes().to_vec();
    entry.extend_from_slice(prefix);
    let found: Vec<usize> = (0..bytes.len() - entry.len())
        .filter(|&i| bytes[i..].starts_with(&entry))
        .collect();
    let [at] = found[..] else {
        panic!("{} entries start with {prefix:?}", found.len());
    };
    let vlen_at = at + 2 + key_len;
    let vlen = u32::from_le_bytes(bytes[vlen_at..vlen_at + 4].try_into().unwrap());
    assert!(vlen & 1 << 31 != 0, "the value is not inline");
    let value = vlen_at + 4..vlen_at + 4 + (vlen & !(1 << 31)) as usize;
    damage(&mut bytes[value]);
    let page = at / PAGE_SIZE * PAGE_SIZE;
    let sealed: &mut [u8; PAGE_SIZE] = (&mut bytes[page..page + PAGE_SIZE]).try_into().unwrap();
    seal_page(sealed);
    std::fs::write(db, bytes).unwrap();
}

/// A frame count no posting list of this size can hold.
fn claim_frames(list: &mut [u8]) {
    list[..4].copy_from_slice(&u32::MAX.to_le_bytes());
}

/// A document segment without its magic.
fn break_magic(segment: &mut [u8]) {
    segment[0] ^= 0xFF;
}

struct Case<'a> {
    what: &'a str,
    key: &'a [u8],
    key_len: usize,
    damage: fn(&mut [u8]),
    error: &'a str,
    touching: &'a [&'a str],
    /// Queries that read nothing of the planted value, with the first
    /// line they print.
    untouched: &'a [(&'a [&'a str], &'a str)],
}

#[test]
fn corruption_surfaces_in_the_query_that_reads_it() {
    let dir = std::env::temp_dir().join(format!("axql-cli-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let docs = [
        "<cd><title>piano concerto</title><composer>rachmaninov</composer></cd>",
        "<mc><title>sonata</title><track>allegro</track></mc>",
    ];
    let xml: Vec<String> = docs
        .iter()
        .enumerate()
        .map(|(i, doc)| {
            let path = dir.join(format!("d{i}.xml"));
            std::fs::write(&path, doc).unwrap();
            path.to_str().unwrap().to_owned()
        })
        .collect();
    let built = dir.join("built.axql");
    let built = built.to_str().unwrap();
    assert_eq!(run(&["build", built, &xml[0], &xml[1]]).0, Some(0));
    let cd = "#0\tcost=0\tnode=#1\t<cd>";
    let mc = "#0\tcost=0\tnode=#7\t<mc>";
    let segment = [b"doc#".as_slice(), &7u32.to_be_bytes()].concat();
    let cases = [
        Case {
            what: "ls#",
            key: b"ls#composer",
            key_len: 11,
            damage: claim_frames,
            error: "skip headers truncated",
            touching: &["--direct", "cd[composer]"],
            untouched: &[
                (&["--direct", "mc[track]"], mc),
                (&["--schema", "cd[composer]"], cd),
            ],
        },
        Case {
            what: "lt#",
            key: b"lt#allegro",
            key_len: 10,
            damage: claim_frames,
            error: "skip headers truncated",
            touching: &["--direct", r#"mc[track["allegro"]]"#],
            untouched: &[
                (&["--direct", r#"cd[title["piano"]]"#], cd),
                (&["--schema", r#"mc[track["allegro"]]"#], mc),
            ],
        },
        Case {
            what: "sec#",
            key: b"sec#rachmaninov#",
            key_len: 20,
            damage: claim_frames,
            error: "skip headers truncated",
            touching: &["--schema", r#"cd[composer["rachmaninov"]]"#],
            untouched: &[
                (&["--schema", "mc[track]"], mc),
                (&["--direct", r#"cd[composer["rachmaninov"]]"#], cd),
            ],
        },
        Case {
            what: "doc#",
            key: segment.as_slice(),
            key_len: 8,
            damage: break_magic,
            error: "bad magic",
            touching: &["--direct", "mc[track]"],
            untouched: &[(&["--direct", "cd[composer]"], cd)],
        },
    ];
    for case in &cases {
        let db = dir.join("planted.axql");
        std::fs::copy(built, &db).unwrap();
        plant(&db, case.key, case.key_len, case.damage);
        let db = db.to_str().unwrap();
        let query = |args: &[&str]| run(&[&["query", db][..], args].concat());
        let (code, _, stderr) = query(case.touching);
        assert_eq!(code, Some(3), "{}: {stderr}", case.what);
        assert!(stderr.contains(case.error), "{}: {stderr}", case.what);
        for (args, first) in case.untouched {
            let (code, stdout, stderr) = query(args);
            assert_eq!(code, Some(0), "{} {args:?}: {stderr}", case.what);
            assert_eq!(
                stdout.lines().next(),
                Some(*first),
                "{} {args:?}",
                case.what
            );
        }
        let (code, _, stderr) = run(&["check", db]);
        assert_eq!(code, Some(3), "{}: {stderr}", case.what);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
