//! Mutable on-disk databases (DESIGN.md §15).
//!
//! A [`DbFile`] pairs an open [`Store`] with its in-memory [`Database`]
//! — decoded in full at open, unlike the catalogue-only
//! [`Database::open`] — and keeps the two in lockstep: every
//! [`DbFile::insert_documents`] /
//! [`DbFile::delete_document`] call applies the mutation in memory,
//! writes exactly the changed keys, and seals them with **one atomic
//! commit per document**. A crash at any point therefore rolls back to
//! the last committed document boundary — never to a half-indexed state —
//! which is what the mutation crash-torture suite sweeps for.
//!
//! A mutation that fails before its commit leaves memory ahead of the
//! last commit and uncommitted pages in the pager, which the next commit
//! would seal. So the file then refuses every further mutation with
//! [`DatabaseError::Interrupted`], and the caller reopens, which reads the
//! last commit. A document with a label too long to store is rejected
//! before anything changes.

use crate::database::MutationDelta;
use crate::database::{check_label_len, doc_key, write_full_image, Database, DatabaseError};
use approxql_index::persist::{label_key, put_lists, save_blob, save_class_numbering, sec_key};
use approxql_index::SecondaryIndex;
use approxql_metrics::Metric;
use approxql_storage::Store;
use approxql_tree::{encode_docmap, encode_interner, longest_label, DocSpan, NodeId};
use approxql_xml::Document;
use std::path::Path;

/// A database bound to the store file it lives in, accepting incremental
/// document mutations. Created with [`DbFile::create`] (writes a full
/// image) or [`DbFile::open`] (reassembles the persisted state).
pub struct DbFile {
    store: Store,
    db: Database,
    /// Set from the start of a mutation until its commit. Still set when
    /// the next one starts, it means a mutation failed on the way.
    in_flight: bool,
}

impl DbFile {
    /// Creates a new store file at `path` holding `db`'s full image. As
    /// [`Database::save`], it writes the file beside `path` and renames it
    /// into place, so `db` may have been opened from `path`.
    pub fn create(path: impl AsRef<Path>, db: Database) -> Result<DbFile, DatabaseError> {
        let store = Store::replace_file(path, |store| write_full_image(store, &db))?;
        Ok(DbFile::new(store, db))
    }

    /// Like [`DbFile::create`] over an already-constructed (fresh) store —
    /// the entry point for fault-injecting backends in tests.
    pub fn create_in(mut store: Store, db: Database) -> Result<DbFile, DatabaseError> {
        write_full_image(&mut store, &db)?;
        store.commit()?;
        Ok(DbFile::new(store, db))
    }

    fn new(store: Store, db: Database) -> DbFile {
        DbFile {
            store,
            db,
            in_flight: false,
        }
    }

    /// Opens the database stored at `path` for reading and mutation.
    pub fn open(path: impl AsRef<Path>) -> Result<DbFile, DatabaseError> {
        DbFile::open_in(Store::open_file(path)?)
    }

    /// Like [`DbFile::open`] over an already-opened store.
    pub fn open_in(mut store: Store) -> Result<DbFile, DatabaseError> {
        let db = Database::from_store(&mut store)?;
        Ok(DbFile::new(store, db))
    }

    /// The in-memory database (query entry points live here).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The store's commit sequence number (one increment per persisted
    /// document mutation).
    pub fn commit_sequence(&self) -> u64 {
        self.store.commit_sequence()
    }

    /// Inserts each parsed document as its own atomically-committed
    /// mutation, returning the new documents' preorder spans. If the
    /// process dies partway through, every fully-committed document
    /// survives recovery and the in-flight one vanishes entirely. A
    /// document with a label longer than a store takes fails the call
    /// before any document is inserted.
    pub fn insert_documents(&mut self, docs: &[Document]) -> Result<Vec<DocSpan>, DatabaseError> {
        for doc in docs {
            check_label_len(longest_label(doc))?;
        }
        let mut spans = Vec::with_capacity(docs.len());
        for doc in docs {
            self.begin()?;
            let interned = self.db.tree().interner().len();
            let delta = self.db.insert_document(doc);
            save_blob(
                &mut self.store,
                "docmap",
                &encode_docmap(self.db.tree().len() as u32, self.db.tree().documents()),
            )?;
            if self.db.tree().interner().len() != interned {
                save_blob(
                    &mut self.store,
                    "interner",
                    &encode_interner(self.db.tree().interner()),
                )?;
            }
            self.store.put(
                &doc_key(delta.span.start),
                &self.db.tree().doc_segment_bytes(delta.span),
            )?;
            self.write_updates(&delta)?;
            if delta.schema.rebuilt {
                // The schema tree grew: it and the numbering that maps
                // class ids onto it are the only values that move.
                let schema = self.db.schema();
                save_blob(&mut self.store, "schema", &schema.tree().to_bytes())?;
                save_class_numbering(&mut self.store, schema.secondary())?;
            }
            self.store.commit()?;
            self.in_flight = false;
            Metric::StoreDocInserts.incr();
            spans.push(delta.span);
        }
        Ok(spans)
    }

    /// Tombstones the document rooted at `root` and commits. Returns the
    /// removed span, or `None` (with nothing written) when `root` is not
    /// a live document root.
    pub fn delete_document(&mut self, root: NodeId) -> Result<Option<DocSpan>, DatabaseError> {
        self.begin()?;
        let Some(delta) = self.db.delete_document(root) else {
            self.in_flight = false;
            return Ok(None);
        };
        save_blob(
            &mut self.store,
            "docmap",
            &encode_docmap(self.db.tree().len() as u32, self.db.tree().documents()),
        )?;
        self.store.delete(&doc_key(delta.span.start))?;
        // Deletion never restructures the schema tree (instance-less
        // nodes are retained).
        self.write_updates(&delta)?;
        self.store.commit()?;
        self.in_flight = false;
        Metric::StoreDocDeletes.incr();
        Ok(Some(delta.span))
    }

    /// Marks a mutation as running; `Err` if one failed before.
    fn begin(&mut self) -> Result<(), DatabaseError> {
        if self.in_flight {
            return Err(DatabaseError::Interrupted);
        }
        self.in_flight = true;
        Ok(())
    }

    /// The one update writer: deletes the key of every posting list the
    /// mutation emptied and puts the current value of every other list it
    /// changed — `ls#`/`lt#` and `sec#` alike, each group in sorted key
    /// order. A mutation that grew the schema comes the same way: `sec#`
    /// keys carry class ids, and those do not move.
    fn write_updates(&mut self, delta: &MutationDelta) -> Result<(), DatabaseError> {
        let (labels, secondary) = (self.db.labels(), self.db.schema().secondary());
        let name = |label| self.db.tree().interner().resolve(label);
        let label_lists = delta.changed_labels.iter().map(|&(ty, l)| {
            let list = labels.blocks(ty, l).map(|list| list.to_bytes());
            (label_key(ty, name(l)), list)
        });
        let sec_lists = delta.schema.changed_sec.iter().map(|&(class, l)| {
            let list = secondary.get(class, l).map(SecondaryIndex::list_bytes);
            (sec_key(class, name(l)), list)
        });
        let (mut gone, mut puts) = (Vec::new(), Vec::new());
        for (key, list) in label_lists.chain(sec_lists) {
            match list {
                Some(list) => puts.push((key, list)),
                None => gone.push(key),
            }
        }
        gone.sort_unstable();
        for key in gone {
            self.store.delete(&key)?;
        }
        Ok(put_lists(&mut self.store, puts.into_iter())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxql_cost::CostModel;
    use approxql_index::persist::MAX_LABEL_LEN;
    use approxql_xml::parse_document;

    fn doc(xml: &str) -> Document {
        parse_document(xml).unwrap()
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("axql-dbfile-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("db.axql")
    }

    #[test]
    fn insert_then_reopen_matches_memory() {
        let path = temp_path("insert");
        let db = Database::from_xml_str("<cd><title>piano</title></cd>", CostModel::new()).unwrap();
        let mut file = DbFile::create(&path, db).unwrap();
        file.insert_documents(&[doc("<cd><title>cello</title></cd>")])
            .unwrap();
        let live = file.database().query_direct(r#"cd[title]"#, None).unwrap();
        assert_eq!(live.len(), 2);
        drop(file);
        let reopened = DbFile::open(&path).unwrap();
        let persisted = reopened
            .database()
            .query_direct(r#"cd[title]"#, None)
            .unwrap();
        assert_eq!(live, persisted);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// Every stored posting list of the file at `path` and the two blobs
    /// that say what the `sec#` keys mean, keyed by store key.
    fn stored_lists(path: &Path) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut store = Store::open_file(path).unwrap();
        let mut lists = Vec::new();
        for prefix in [
            &b"ls#"[..],
            b"lt#",
            b"sec#",
            b"meta#schema",
            b"meta#classes",
        ] {
            lists.extend(store.scan_prefix(prefix).unwrap().collect_all().unwrap());
        }
        lists
    }

    /// Twelve documents over a handful of paths; the first holds them all.
    fn path_reusing_docs() -> Vec<String> {
        let words = ["piano", "cello", "vivace", "concerto", "sonata"];
        (0..12)
            .map(|i| {
                let (a, b) = (words[i % 5], words[(i * 3 + 1) % 5]);
                format!(
                    "<cd><title>{a} {b}</title><tracks><track><title>{b}</title></track>\
                     <track><title>{a}</title></track></tracks></cd>"
                )
            })
            .collect()
    }

    #[test]
    fn insert_cycles_leave_the_lists_of_a_fresh_build() {
        let path = temp_path("cycles");
        let fresh_path = path.with_file_name("fresh.axql");
        let mut xmls = path_reusing_docs();
        // Two novel paths among the twelve: a new top-level name lands at
        // the end of the schema, a new child of the first class after
        // that in its middle.
        xmls[3] = xmls[3].replace("cd>", "dvd>");
        xmls[7] = xmls[7].replace("</cd>", "<composer>bach</composer></cd>");
        let db = Database::from_xml_str(&xmls[0], CostModel::new()).unwrap();
        drop(DbFile::create(&path, db).unwrap());
        // What `approxql insert` does, once per document.
        for xml in &xmls[1..] {
            let mut file = DbFile::open(&path).unwrap();
            file.insert_documents(&[doc(xml)]).unwrap();
        }
        let refs: Vec<&str> = xmls.iter().map(String::as_str).collect();
        let fresh = Database::from_xml_strs(&refs, CostModel::new()).unwrap();
        drop(DbFile::create(&fresh_path, fresh).unwrap());
        let (grown, built) = (stored_lists(&path), stored_lists(&fresh_path));
        assert!(grown.iter().any(|(k, _)| k.starts_with(b"sec#")));
        assert_eq!(grown.last().unwrap().0, b"meta#classes");
        assert_eq!(grown.len(), built.len());
        for (g, b) in grown.iter().zip(&built) {
            assert_eq!(g, b, "list {}", String::from_utf8_lossy(&g.0));
        }
        Database::check_file(&path).unwrap();
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_path_under_an_early_class_writes_only_its_own_keys() {
        let path = temp_path("midschema");
        let fresh_path = path.with_file_name("fresh.axql");
        // Eighty documents under four top-level names: `cd` is the first
        // class, and three more subtrees stand after it in the schema.
        let mut xmls: Vec<String> = (0..80)
            .map(|i| {
                let (top, word) = (["cd", "dvd", "mc", "lp"][i % 4], ["piano", "cello"][i % 2]);
                format!("<{top}><title>{word} n{i}</title><year>19{i:02}</year></{top}>")
            })
            .collect();
        let refs: Vec<&str> = xmls.iter().map(String::as_str).collect();
        let db = Database::from_xml_strs(&refs, CostModel::new()).unwrap();
        drop(DbFile::create(&path, db).unwrap());

        let mut file = DbFile::open(&path).unwrap();
        let classes = file.database().schema().secondary().numbering().to_vec();
        xmls.push("<cd><title>piano</title><composer>bach</composer></cd>".to_owned());
        let before = approxql_metrics::snapshot();
        file.insert_documents(&[doc(&xmls[80])]).unwrap();
        let wrote = approxql_metrics::snapshot().diff(&before);
        // The new `composer` path renumbered every schema node after `cd`…
        let grown = file.database().schema().secondary().numbering();
        assert_eq!(grown.len(), classes.len() + 2);
        assert_ne!(grown[..classes.len()], classes[..]);
        // …and the insert still wrote only what its own five nodes touch:
        // 5 `sec#` lists (cd, title, "piano", composer, "bach"), 6 label
        // lists (the same and the virtual root's), docmap, segment,
        // interner, schema, classes.
        assert_eq!(wrote.get(Metric::BtreeDeletes), 0);
        assert_eq!(wrote.get(Metric::BtreeInserts), 5 + 6 + 5);

        let queries = [
            r#"cd[composer["bach"]]"#,
            r#"dvd[title["cello"]]"#,
            "lp[year]",
        ];
        let reopened = DbFile::open(&path).unwrap();
        for q in queries {
            let (live, disk) = (file.database(), reopened.database());
            let direct = live.query_direct(q, None).unwrap();
            assert!(!direct.is_empty(), "{q}");
            assert_eq!(disk.query_direct(q, None).unwrap(), direct, "{q}");
            let schema = live.query_schema(q, 100).unwrap();
            assert_eq!(schema, direct, "{q}");
            assert_eq!(disk.query_schema(q, 100).unwrap(), schema, "{q}");
        }
        drop((file, reopened));
        Database::check_file(&path).unwrap();

        let refs: Vec<&str> = xmls.iter().map(String::as_str).collect();
        let fresh = Database::from_xml_strs(&refs, CostModel::new()).unwrap();
        drop(DbFile::create(&fresh_path, fresh).unwrap());
        assert!(stored_lists(&path) == stored_lists(&fresh_path));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// A `classes` blob of these words.
    fn numbering(pres: &[u32]) -> Vec<u8> {
        pres.iter().flat_map(|p| p.to_le_bytes()).collect()
    }

    #[test]
    fn a_planted_class_numbering_is_a_typed_error_never_a_panic() {
        let path = temp_path("numbering");
        let planted = path.with_file_name("planted.axql");
        let docs = [
            "<cd><title>piano</title></cd>",
            "<dvd><title>film</title></dvd>",
        ];
        let db = Database::from_xml_strs(&docs, CostModel::new()).unwrap();
        // root, cd, title, text, dvd, title, text: built in order.
        let good = db.schema().secondary().numbering().to_vec();
        assert_eq!(good, [0, 1, 2, 3, 4, 5, 6]);
        let cd = db.tree().lookup_label("cd").unwrap();
        let cd_list = SecondaryIndex::list_bytes(db.schema().secondary().get(1, cd).unwrap());
        drop(DbFile::create(&path, db).unwrap());
        // Each plant is one more commit on a copy: every page checksum
        // holds, only the meaning is wrong.
        let plant = |key: &[u8], value: Option<&[u8]>| {
            std::fs::copy(&path, &planted).unwrap();
            let mut store = Store::open_file(&planted).unwrap();
            match value {
                Some(value) => store.put(key, value).unwrap(),
                None => assert!(store.delete(key).unwrap()),
            }
            store.commit().unwrap();
            drop(store);
            (
                Database::open(&planted).err().map(|e| e.to_string()),
                Database::check_file(&planted).err().map(|e| e.to_string()),
            )
        };
        let classes: &[u8] = b"meta#classes";
        for (blob, why) in [
            (numbering(&good)[..27].to_vec(), "truncated blob"),
            (
                numbering(&[0, 1, 2, 3, 4, 5, 5]),
                "two classes share a schema node",
            ),
            (
                numbering(&[0, 1, 2, 3, 4, 5, 7]),
                "a class points past the schema tree",
            ),
            (
                numbering(&[1, 0, 2, 3, 4, 5, 6]),
                "the root class is not schema node 0",
            ),
        ] {
            let (open, check) = plant(classes, Some(&blob));
            let want = Some(format!("bad class numbering: {why}"));
            assert_eq!((open, check), (want.clone(), want));
        }
        let (open, check) = plant(classes, None);
        assert_eq!(open.as_deref(), Some("missing stored blob `classes`"));
        assert_eq!(check, open);
        // A shorter table is a fine permutation that leaves schema nodes
        // without a class.
        let (open, check) = plant(classes, Some(&numbering(&[0, 1, 2, 3, 4])));
        assert_eq!(
            open.as_deref(),
            Some("inconsistent persisted schema: class numbering does not cover the schema tree")
        );
        assert_eq!(check, open);
        // A key that names a class nobody numbered is in no list `open`
        // reads: the schema query that reads `cd`'s lists reports it, a
        // direct one never reads them, and `check` reads everything.
        let (open, check) = plant(&sec_key(7, "cd"), Some(&cd_list));
        assert_eq!(open, None);
        let bad_key = |e: &str| e.starts_with("malformed index key `sec#cd#");
        assert!(check.as_deref().is_some_and(bad_key), "{check:?}");
        let db = Database::open(&planted).unwrap();
        let err = db.query_schema("cd[title]", 5).err().map(|e| e.to_string());
        assert!(err.as_deref().is_some_and(bad_key), "{err:?}");
        assert_eq!(db.query_direct("cd[title]", None).unwrap().len(), 1);
        assert_eq!(db.query_schema("dvd[title]", 5).unwrap().len(), 1);
        // Two ids swapped (`cd` and `dvd`): each is valid, the store
        // opens, and only `check` sees that the lists sit under the wrong
        // classes.
        let (open, check) = plant(classes, Some(&numbering(&[0, 4, 2, 3, 1, 5, 6])));
        assert_eq!(open, None);
        assert_eq!(
            check.as_deref(),
            Some("inconsistent persisted schema: secondary index contradicts the classification")
        );
        // So does one list moved to another class that exists.
        let (open, check) = plant(&sec_key(4, "cd"), Some(&cd_list));
        assert_eq!(open, None);
        assert!(check.is_some_and(|e| e.ends_with("contradicts the classification")));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_label_list_that_does_not_decode_is_an_error() {
        let path = temp_path("badrun");
        let cd = "<cd><title>piano</title><composer>bach</composer></cd>";
        let db = Database::from_xml_strs(&[cd, cd], CostModel::new()).unwrap();
        drop(DbFile::create(&path, db).unwrap());
        // The last varint of `ls#composer` claims a next byte: its entry
        // count still fits its bytes, so only the decode can tell.
        let mut store = Store::open_file(&path).unwrap();
        let key = label_key(approxql_tree::NodeType::Struct, "composer");
        let mut list = store.get(&key).unwrap().unwrap();
        *list.last_mut().unwrap() |= 0x80;
        store.put(&key, &list).unwrap();
        store.commit().unwrap();
        drop(store);
        let runs_past = |e: DatabaseError| e.to_string().contains("varint runs past the list");
        assert!(DbFile::open(&path).err().is_some_and(runs_past));
        assert!(Database::check_file(&path).err().is_some_and(runs_past));
        // A lazily opened store fails the query that reads the list, and
        // only that one.
        let db = Database::open(&path).unwrap();
        assert!(db
            .query_direct("cd[composer]", None)
            .err()
            .is_some_and(runs_past));
        assert_eq!(db.query_direct("cd[title]", None).unwrap().len(), 2);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn check_rejects_a_non_canonical_secondary_list_and_mutation_heals_it() {
        let path = temp_path("noncanonical");
        let xmls = path_reusing_docs();
        let refs: Vec<&str> = xmls.iter().map(String::as_str).collect();
        let db = Database::from_xml_strs(&refs[..11], CostModel::new()).unwrap();
        let query = r#"cd[title["piano"]]"#;
        let want = db.query_schema(query, 20).unwrap();
        drop(DbFile::create(&path, db).unwrap());
        // Spell the last varint of the `cd` instance list (a one-byte
        // bound delta) in two bytes: the list decodes to the same entries,
        // but is not their canonical encoding.
        let (key, mut value) = stored_lists(&path)
            .into_iter()
            .find(|(k, _)| k.starts_with(b"sec#cd#"))
            .unwrap();
        assert_eq!(value[..4], 11u32.to_le_bytes());
        let last = value.pop().unwrap();
        assert!(last < 0x80);
        value.extend([last | 0x80, 0]);
        let mut store = Store::open_file(&path).unwrap();
        store.put(&key, &value).unwrap();
        store.commit().unwrap();
        drop(store);
        // Reported by check, yet it opens and answers as before …
        assert!(matches!(
            Database::check_file(&path),
            Err(DatabaseError::Persist(_))
        ));
        let mut file = DbFile::open(&path).unwrap();
        assert_eq!(file.database().query_schema(query, 20).unwrap(), want);
        // … and the next mutation that touches the list rewrites it whole.
        file.insert_documents(&[doc(&xmls[11])]).unwrap();
        drop(file);
        Database::check_file(&path).unwrap();
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn building_the_same_collection_twice_gives_identical_files() {
        let path = temp_path("twice");
        let again = path.with_file_name("again.axql");
        let mut cfg = approxql_gen::DataGenConfig::paper_scale_divided(1000);
        cfg.seed = 7;
        for p in [&path, &again] {
            // A fresh `Database` each time: its hash maps iterate in a
            // different order in every instance.
            let tree =
                approxql_gen::DataGenerator::new(cfg.clone()).generate_tree(&CostModel::new());
            let db = Database::from_tree(tree, CostModel::new());
            assert!(db.labels().len() > 100);
            drop(DbFile::create(p, db).unwrap());
        }
        assert!(std::fs::read(&path).unwrap() == std::fs::read(&again).unwrap());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn delete_then_reopen_matches_memory() {
        let path = temp_path("delete");
        let db = Database::from_xml_strs(
            &[
                "<cd><title>piano</title></cd>",
                "<cd><title>cello</title></cd>",
            ],
            CostModel::new(),
        )
        .unwrap();
        let mut file = DbFile::create(&path, db).unwrap();
        let first = file.database().tree().documents()[0];
        let span = file
            .delete_document(approxql_tree::NodeId(first.start))
            .unwrap()
            .expect("first document is live");
        assert_eq!(span.start, first.start);
        assert!(file
            .delete_document(approxql_tree::NodeId(span.start))
            .unwrap()
            .is_none());
        let live = file.database().query_direct(r#"cd[title]"#, None).unwrap();
        assert_eq!(live.len(), 1);
        drop(file);
        let reopened = DbFile::open(&path).unwrap();
        assert_eq!(
            reopened
                .database()
                .query_direct(r#"cd[title]"#, None)
                .unwrap(),
            live
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn mutation_metrics_count_commits() {
        let before = approxql_metrics::snapshot();
        let db = Database::from_xml_str("<a><b>x</b></a>", CostModel::new()).unwrap();
        let mut file = DbFile::create_in(Store::in_memory().unwrap(), db).unwrap();
        let csn_created = file.commit_sequence();
        let spans = file
            .insert_documents(&[doc("<a><b>y</b></a>"), doc("<a><b>z</b></a>")])
            .unwrap();
        file.delete_document(NodeId(spans[0].start)).unwrap();
        let delta = approxql_metrics::snapshot().diff(&before);
        assert_eq!(delta.get(Metric::StoreDocInserts), 2);
        assert_eq!(delta.get(Metric::StoreDocDeletes), 1);
        // One commit per mutation: 2 inserts + 1 delete.
        assert_eq!(file.commit_sequence(), csn_created + 3);
    }

    #[test]
    fn a_label_too_long_to_store_fails_the_insert_before_any_write() {
        let path = temp_path("long-label");
        let db = Database::from_xml_str("<cd><title>piano</title></cd>", CostModel::new()).unwrap();
        let mut file = DbFile::create(&path, db).unwrap();
        let committed = file.commit_sequence();
        let titled = |len| doc(&format!("<cd><title>{}</title></cd>", "a".repeat(len)));
        let docs = [doc("<cd/>"), titled(MAX_LABEL_LEN + 1)];
        let err = file.insert_documents(&docs).unwrap_err();
        assert!(matches!(err, DatabaseError::LabelTooLong(n) if n == MAX_LABEL_LEN + 1));
        // Neither document went in, and the file takes the next insert.
        assert_eq!(file.commit_sequence(), committed);
        let ok = [doc("<cd><title>cello</title></cd>"), titled(MAX_LABEL_LEN)];
        file.insert_documents(&ok).unwrap();
        drop(file);
        Database::check_file(&path).unwrap();
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_mutation_that_fails_before_its_commit_stops_the_file() {
        use approxql_storage::{FaultBackend, FaultConfig, SharedMemBackend};
        let disk = SharedMemBackend::new();
        // Creating the store and its image takes the first four syncs.
        let cfg = FaultConfig {
            fail_sync_at: Some(4),
            ..FaultConfig::default()
        };
        let store = Store::create(Box::new(FaultBackend::new(Box::new(disk.clone()), cfg)));
        let db = Database::from_xml_str("<cd><title>piano</title></cd>", CostModel::new()).unwrap();
        let mut file = DbFile::create_in(store.unwrap(), db).unwrap();
        let committed = file.commit_sequence();
        assert!(file
            .insert_documents(&[doc("<cd><title>cello</title></cd>")])
            .is_err());
        // The next commit would seal the failed insert's pages: refused.
        let err = file.insert_documents(&[doc("<cd><title>organ</title></cd>")]);
        assert!(matches!(err, Err(DatabaseError::Interrupted)));
        let err = file.delete_document(NodeId(1));
        assert!(matches!(err, Err(DatabaseError::Interrupted)));
        // A reopen reads the last commit.
        let store = Store::open(Box::new(SharedMemBackend::from(disk.snapshot()))).unwrap();
        let reopened = DbFile::open_in(store).unwrap();
        assert_eq!(reopened.commit_sequence(), committed);
        let hits = reopened.database().query_direct("cd", None).unwrap();
        assert_eq!(hits.len(), 1);
    }
}
