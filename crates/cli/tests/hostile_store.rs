//! Stores with planted damage behind valid page checksums.
//!
//! * A query reads only what its answer needs — its plan's `ls#`/`lt#`
//!   lists, or the `sec#` keys of its labels and the `sec#` lists its
//!   draws execute, and a hit's `doc#` segment only for `--xml` — so
//!   corruption is found where it is read: one planted value per keyspace
//!   a query reads lazily (`ls#`, `lt#`, `sec#`, `doc#`), one `ls#` run
//!   that does not decode behind a count its bytes can hold, and one
//!   `sec#` run whose second entry repeats the first one's `pre`. The
//!   query that reads it exits 3 with the typed error, a query that does
//!   not succeeds (plain text output of a hit whose segment is damaged
//!   among them: its name comes from the lists), and `check`, which reads
//!   everything, exits 3.
//! * Every length or count field of every blob kind, and of the leaf entry
//!   that holds a blob, set to 0, its value + 1, 2³¹ and its maximum:
//!   `check` and a query that reads the field, each under a 1 GiB address
//!   space, exit 0 or 3 within 10 s — never a signal (an aborted
//!   allocation), a panic (101) or a hang.

use approxql_storage::{seal_page, PAGE_SIZE};
use std::io::Read;
use std::ops::Range;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_approxql");

/// Runs `approxql <args>`: exit code, stdout, stderr.
fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let done = Command::new(BIN).args(args).output().unwrap();
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (done.status.code(), text(&done.stdout), text(&done.stderr))
}

/// Runs `approxql <args>` in a 1 GiB address space (`ulimit -v`) and waits
/// at most 10 s: the exit code (`None` for a signal) and stderr.
fn run_capped(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new("sh")
        .args(["-c", "ulimit -v 1048576; exec \"$0\" \"$@\"", BIN])
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("approxql {args:?} ran for more than 10 s");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    (status.code(), stderr)
}

/// The file offset of the leaf entry `klen u16 | key | vlen u32 | payload`
/// of the one key of the store that starts with `prefix` and is `key_len`
/// bytes long.
fn find_entry(bytes: &[u8], prefix: &[u8], key_len: usize) -> usize {
    let mut entry = (key_len as u16).to_le_bytes().to_vec();
    entry.extend_from_slice(prefix);
    let found: Vec<usize> = (0..bytes.len() - entry.len())
        .filter(|&i| bytes[i..].starts_with(&entry))
        .collect();
    let [at] = found[..] else {
        panic!("{} entries start with {prefix:?}", found.len());
    };
    at
}

/// The file range of the value of the entry at `at`, which must be inline.
fn inline_value(bytes: &[u8], at: usize, key_len: usize) -> Range<usize> {
    let vlen_at = at + 2 + key_len;
    let vlen = u32::from_le_bytes(bytes[vlen_at..vlen_at + 4].try_into().unwrap());
    assert!(vlen & 1 << 31 != 0, "the value is not inline");
    vlen_at + 4..vlen_at + 4 + (vlen & !(1 << 31)) as usize
}

/// The value of the one key of `db` that starts with `prefix` and is
/// `key_len` bytes long.
fn value_of(db: &Path, prefix: &[u8], key_len: usize) -> Vec<u8> {
    let bytes = std::fs::read(db).unwrap();
    let at = find_entry(&bytes, prefix, key_len);
    bytes[inline_value(&bytes, at, key_len)].to_vec()
}

/// Lets `damage` edit the bytes of `db` at the leaf entry of its one key
/// that starts with `prefix` and is `key_len` bytes long (it gets the
/// entry's offset), then re-seals every page.
fn plant_at(db: &Path, prefix: &[u8], key_len: usize, damage: impl FnOnce(&mut [u8], usize)) {
    let mut bytes = std::fs::read(db).unwrap();
    let at = find_entry(&bytes, prefix, key_len);
    damage(&mut bytes, at);
    for page in bytes.chunks_exact_mut(PAGE_SIZE) {
        seal_page(page.try_into().unwrap());
    }
    std::fs::write(db, bytes).unwrap();
}

/// Rewrites the inline value of that key through `damage`.
fn plant(db: &Path, prefix: &[u8], key_len: usize, damage: impl FnOnce(&mut [u8])) {
    plant_at(db, prefix, key_len, |bytes, at| {
        let value = inline_value(bytes, at, key_len);
        damage(&mut bytes[value]);
    });
}

/// Builds `name.axql` in `dir` from the documents `docs`; returns its path.
fn build(dir: &Path, name: &str, docs: &[&str]) -> String {
    let mut args = vec![
        "build".to_owned(),
        dir.join(name).to_str().unwrap().to_owned(),
    ];
    for (i, doc) in docs.iter().enumerate() {
        let path = dir.join(format!("{name}{i}.xml"));
        std::fs::write(&path, doc).unwrap();
        args.push(path.to_str().unwrap().to_owned());
    }
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (code, _, stderr) = run(&args);
    assert_eq!(code, Some(0), "{stderr}");
    args[1].to_owned()
}

const DOCS: [&str; 2] = [
    "<cd><title>piano concerto</title><composer>rachmaninov</composer></cd>",
    "<mc><title>sonata</title><track>allegro</track></mc>",
];

/// An entry count no posting list of this size can hold.
fn claim_entries(list: &mut [u8]) {
    list[..4].copy_from_slice(&u32::MAX.to_le_bytes());
}

/// A last varint that claims a next byte: the entry count still fits the
/// bytes, only the decode of the last entry fails.
fn run_past_the_end(list: &mut [u8]) {
    if let Some(last) = list.last_mut() {
        *last |= 0x80;
    }
}

/// The second entry's `pre` delta set to 0, so it repeats the first
/// entry's `pre`: a list of two instances whose four varints (pre delta
/// and bound delta each) are one byte each.
fn repeat_the_first_pre(list: &mut [u8]) {
    assert_eq!(list.len(), 4 + 4, "not two instances of one-byte varints");
    assert_eq!(list[..4], 2u32.to_le_bytes());
    list[6] = 0;
}

/// A document segment without its magic.
fn break_magic(segment: &mut [u8]) {
    segment[0] ^= 0xFF;
}

struct Case<'a> {
    what: &'a str,
    /// The store the damage is planted in a copy of.
    store: &'a str,
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
    let built = build(&dir, "built", &DOCS);
    // Two `cd`s on one path: the instance list of their class holds two
    // entries.
    let repeated = build(
        &dir,
        "repeated",
        &[
            "<cd><title>piano</title></cd>",
            "<cd><title>sonata</title></cd>",
            "<mc><track>allegro</track></mc>",
        ],
    );
    let cd = "#0\tcost=0\tnode=#1\t<cd>";
    let mc = "#0\tcost=0\tnode=#7\t<mc>";
    let segment = [b"doc#".as_slice(), &7u32.to_be_bytes()].concat();
    let cases = [
        Case {
            store: &built,
            what: "ls#",
            key: b"ls#composer",
            key_len: 11,
            damage: claim_entries,
            error: "entry count exceeds what the list holds",
            touching: &["--direct", "cd[composer]"],
            untouched: &[
                (&["--direct", "mc[track]"], mc),
                (&["--schema", "cd[composer]"], cd),
            ],
        },
        Case {
            store: &built,
            what: "lt#",
            key: b"lt#allegro",
            key_len: 10,
            damage: claim_entries,
            error: "entry count exceeds what the list holds",
            touching: &["--direct", r#"mc[track["allegro"]]"#],
            untouched: &[
                (&["--direct", r#"cd[title["piano"]]"#], cd),
                (&["--schema", r#"mc[track["allegro"]]"#], mc),
            ],
        },
        Case {
            store: &built,
            what: "sec#",
            key: b"sec#rachmaninov#",
            key_len: 20,
            damage: claim_entries,
            error: "entry count exceeds what the list holds",
            touching: &["--schema", r#"cd[composer["rachmaninov"]]"#],
            untouched: &[
                (&["--schema", "mc[track]"], mc),
                (&["--direct", r#"cd[composer["rachmaninov"]]"#], cd),
            ],
        },
        Case {
            store: &built,
            what: "ls# run",
            key: b"ls#composer",
            key_len: 11,
            damage: run_past_the_end,
            error: "varint runs past the list",
            touching: &["--direct", "cd[composer]"],
            untouched: &[
                (&["--direct", "mc[track]"], mc),
                (&["--schema", "cd[composer]"], cd),
            ],
        },
        Case {
            store: &repeated,
            what: "sec# order",
            key: b"sec#cd#",
            key_len: 11,
            damage: repeat_the_first_pre,
            error: "pre not strictly increasing",
            touching: &["--schema", "cd[title]"],
            untouched: &[
                (&["--schema", "mc[track]"], mc),
                (&["--direct", "cd[title]"], cd),
            ],
        },
        Case {
            store: &built,
            what: "doc#",
            key: segment.as_slice(),
            key_len: 8,
            damage: break_magic,
            error: "bad magic",
            touching: &["--direct", "--xml", "mc[track]"],
            untouched: &[
                (&["--direct", "mc[track]"], mc),
                (&["--schema", "mc[track]"], mc),
                (&["--direct", "cd[composer]"], cd),
            ],
        },
    ];
    for case in &cases {
        let db = dir.join("planted.axql");
        std::fs::copy(case.store, &db).unwrap();
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

/// Where a fuzzed field sits.
#[derive(Clone, Copy)]
enum Place {
    /// At this byte of the value.
    Value(usize),
    /// At this byte of the leaf entry (`klen` at 0, `vlen` behind the key).
    Entry(usize),
    /// At this byte of the leaf page (`n` at 1, behind the tag).
    Leaf(usize),
}

/// A fuzzed field: its name, where it sits, and its width in bytes
/// (little-endian).
type Field<'a> = (&'a str, Place, usize);

/// The fields of one key: the key's prefix and length, a query that
/// reads the key, and the fields.
type Fields<'a> = (&'a [u8], usize, &'a [&'a str], &'a [Field<'a>]);

#[test]
fn every_length_field_is_a_typed_error_under_a_memory_cap() {
    let dir = std::env::temp_dir().join(format!("axql-cli-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let built = build(&dir, "built", &DOCS);
    let built = Path::new(&built);

    // The whole-tree dump of the schema: magic 8 | version u32 | string
    // count u32 | (length u32, bytes)* | node count u64 | two varints per
    // node | two 8-byte costs per node | span count u32 | spans.
    let schema = value_of(built, b"meta#schema", 11);
    let word = |at: usize| u32::from_le_bytes(schema[at..at + 4].try_into().unwrap()) as usize;
    let mut nodes_at = 16;
    for _ in 0..word(12) {
        nodes_at += 4 + word(nodes_at);
    }
    let nodes = u64::from_le_bytes(schema[nodes_at..nodes_at + 8].try_into().unwrap());
    let mut spans_at = nodes_at + 8;
    for _ in 0..2 * nodes {
        approxql_tree::read_varint(&schema, &mut spans_at).unwrap();
    }
    spans_at += 16 * nodes as usize;
    assert_eq!(schema.len(), spans_at + 4 + 9 * word(spans_at));
    let classes_len = value_of(built, b"meta#classes", 12).len();

    use Place::{Entry, Leaf, Value};
    // A posting list: entry count u32, then the entries' varints.
    let run = [("entry count", Value(0), 4)];
    let catalogue: &[&str] = &["cd[composer]"];
    let segment = [b"doc#".as_slice(), &7u32.to_be_bytes()].concat();
    let keys: [Fields; 8] = [
        (
            b"meta#schema",
            11,
            catalogue,
            &[
                ("string count", Value(12), 4),
                ("string length", Value(16), 4),
                ("node count", Value(nodes_at), 8),
                ("span count", Value(spans_at), 4),
            ],
        ),
        (
            b"meta#interner",
            13,
            catalogue,
            &[
                ("string count", Value(8), 4),
                ("string length", Value(12), 4),
            ],
        ),
        (
            b"meta#docmap",
            11,
            catalogue,
            &[
                ("total length", Value(8), 4),
                ("span count", Value(12), 4),
                // The fields of its leaf, which every open reads.
                ("leaf entry count", Leaf(1), 2),
                ("leaf key length", Entry(0), 2),
                ("leaf value length", Entry(2 + 11), 4),
            ],
        ),
        (
            b"meta#classes",
            12,
            catalogue,
            &[
                ("first pre", Value(0), 4),
                ("last pre", Value(classes_len - 4), 4),
            ],
        ),
        (
            &segment,
            8,
            &["--direct", "--xml", "mc[track]"],
            &[("node count", Value(8), 4)],
        ),
        (b"ls#composer", 11, &["--direct", "cd[composer]"], &run),
        (
            b"lt#allegro",
            10,
            &["--direct", r#"mc[track["allegro"]]"#],
            &run,
        ),
        (
            b"sec#rachmaninov#",
            20,
            &["--schema", r#"cd[composer["rachmaninov"]]"#],
            &run,
        ),
    ];

    let db = dir.join("planted.axql");
    let db_str = db.to_str().unwrap();
    for (key, key_len, query, fields) in keys {
        let query = [&["query", db_str][..], query].concat();
        for &(what, place, width) in fields {
            let bits = 8 * width as u32;
            let max = u64::MAX >> (64 - bits);
            for fuzz in ["0", "v+1", "huge", "max"] {
                std::fs::copy(built, &db).unwrap();
                plant_at(&db, key, key_len, |bytes, at| {
                    let at = match place {
                        Value(i) => inline_value(bytes, at, key_len).start + i,
                        Entry(i) => at + i,
                        Leaf(i) => at / PAGE_SIZE * PAGE_SIZE + i,
                    };
                    let slot = &mut bytes[at..at + width];
                    let mut v = [0u8; 8];
                    v[..width].copy_from_slice(slot);
                    let v = match fuzz {
                        "0" => 0,
                        "v+1" => u64::from_le_bytes(v).wrapping_add(1) & max,
                        "huge" => 1 << 31.min(bits - 1),
                        _ => max,
                    };
                    slot.copy_from_slice(&v.to_le_bytes()[..width]);
                });
                for args in [&["check", db_str][..], &query] {
                    let (code, stderr) = run_capped(args);
                    assert!(
                        matches!(code, Some(0 | 3)),
                        "{} {what} = {fuzz}: approxql {args:?} exited {code:?}: {stderr}",
                        String::from_utf8_lossy(key)
                    );
                }
            }
        }
    }

    // A document map whose last document is a tombstone of 2³¹ or 2³² − 1
    // nodes: every reader that decodes the whole tree reports it, where it
    // used to abort on the allocation.
    let doc = dir.join("more.xml");
    std::fs::write(&doc, "<cd><title>etude</title></cd>").unwrap();
    for total in [1u32 << 31, u32::MAX] {
        std::fs::copy(built, &db).unwrap();
        // magic 8 | total u32 | span count u32 | (start u32, bound u32,
        // alive u8) per document
        plant(&db, b"meta#docmap", 11, |docmap| {
            assert_eq!(docmap.len(), 34, "not two documents");
            docmap[8..12].copy_from_slice(&total.to_le_bytes());
            docmap[29..33].copy_from_slice(&(total - 1).to_le_bytes());
            docmap[33] = 0;
        });
        for args in [
            &["check", db_str][..],
            &["stats", db_str],
            &["insert", db_str, doc.to_str().unwrap()],
        ] {
            let (code, stderr) = run_capped(args);
            assert_eq!(code, Some(3), "{total} nodes: approxql {args:?}: {stderr}");
            assert!(stderr.contains("more nodes than"), "{stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
