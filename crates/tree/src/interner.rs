//! String interning for node labels.
//!
//! The evaluation algorithms never compare label strings; they work on
//! dense [`LabelId`]s, which also key the label indexes. One interner is
//! shared by struct and text labels — the node *type* is stored separately,
//! so an element `concerto` and the word `concerto` intern to the same id
//! but never collide semantically.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// A dense identifier for an interned label string.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LabelId(pub u32);

impl LabelId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only string interner. The map and the id-ordered list share
/// one allocation per string.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    map: HashMap<Arc<str>, LabelId>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Creates an empty interner with room for `n` strings.
    pub fn with_capacity(n: usize) -> Interner {
        Interner {
            map: HashMap::with_capacity(n),
            strings: Vec::with_capacity(n),
        }
    }

    /// The id the next new string gets.
    fn next_id(&self) -> LabelId {
        LabelId(u32::try_from(self.strings.len()).expect("more than u32::MAX labels"))
    }

    /// Interns `s`, returning its id (existing or fresh).
    pub fn intern(&mut self, s: &str) -> LabelId {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = self.next_id();
        let shared: Arc<str> = s.into();
        self.strings.push(Arc::clone(&shared));
        self.map.insert(shared, id);
        id
    }

    /// Interns `s` if it is new — one hash and one allocation — and returns
    /// its fresh id; `None` if `s` is interned already. How a decoded
    /// interner, whose strings are distinct, is filled.
    pub fn intern_new(&mut self, s: &str) -> Option<LabelId> {
        let id = self.next_id();
        match self.map.entry(s.into()) {
            Entry::Occupied(_) => None,
            Entry::Vacant(slot) => {
                self.strings.push(Arc::clone(slot.key()));
                slot.insert(id);
                Some(id)
            }
        }
    }

    /// Looks up an already-interned string.
    pub fn get(&self, s: &str) -> Option<LabelId> {
        self.map.get(s).copied()
    }

    /// Resolves an id back to its string.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: LabelId) -> &str {
        &self.strings[id.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// All interned strings in id order.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (LabelId(i as u32), s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("cd");
        let b = i.intern("cd");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a"), LabelId(0));
        assert_eq!(i.intern("b"), LabelId(1));
        assert_eq!(i.intern("a"), LabelId(0));
        assert_eq!(i.intern("c"), LabelId(2));
    }

    #[test]
    fn resolve_roundtrips() {
        let mut i = Interner::new();
        let id = i.intern("composer");
        assert_eq!(i.resolve(id), "composer");
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let id = i.intern("x");
        assert_eq!(i.get("x"), Some(id));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut i = Interner::new();
        i.intern("b");
        i.intern("a");
        let all: Vec<_> = i.iter().map(|(id, s)| (id.0, s.to_owned())).collect();
        assert_eq!(all, vec![(0, "b".to_owned()), (1, "a".to_owned())]);
    }

    #[test]
    fn intern_new_refuses_a_known_string() {
        let mut i = Interner::with_capacity(2);
        assert_eq!(i.intern_new("a"), Some(LabelId(0)));
        assert_eq!(i.intern_new("b"), Some(LabelId(1)));
        assert_eq!(i.intern_new("a"), None);
        assert_eq!(
            (i.len(), i.get("b"), i.resolve(LabelId(0))),
            (2, Some(LabelId(1)), "a")
        );
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
