//! String interning: dense `u32` symbols for hot-path name lookups.
//!
//! The simulator's hot path touches the same handful of host names
//! millions of times (every fetch resolves a host, consults caches keyed
//! by it, and tallies per-host statistics). Keying those structures by
//! owned `String`s means an allocation and an O(len) compare per touch;
//! interning maps each distinct name to a dense `u32` symbol once, after
//! which every lookup is an array index.
//!
//! Determinism: symbols are assigned in first-intern order, so two runs
//! that intern the same names in the same order agree on every id. The
//! reverse map is never iterated (only indexed), so the internal hash
//! map's iteration order cannot leak into simulation results.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Rotate-xor-multiply hash over 8-byte words (the rustc "Fx" scheme).
/// The interner's keys are host/URL/user-agent strings hashed on every
/// fetch and every submission; SipHash's per-call setup and
/// finalisation dominate at those lengths, and byte-at-a-time hashes
/// serialise on the multiply. One multiply per 8-byte word is
/// substantially cheaper than either. DoS resistance is irrelevant
/// here — keys come from the simulation itself, not from an adversary.
#[derive(Debug, Default)]
pub struct FxHasher(u64);

const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let word = u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes"));
            h = (h.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
        }
        for &b in chunks.remainder() {
            h = (h.rotate_left(5) ^ u64::from(b)).wrapping_mul(FX_SEED);
        }
        self.0 = h;
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, `Default`-constructed).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A dense symbol for an interned string. The numeric value is an index
/// into the interner's table, assigned in first-seen order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// The symbol as a table index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only string interner. Strings are interned exactly as given
/// (callers normalise case *before* interning when they need
/// case-insensitive identity).
#[derive(Debug, Default)]
pub struct Interner {
    ids: HashMap<Box<str>, Sym, FxBuildHasher>,
    strings: Vec<Box<str>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// An empty interner with room for `cap` symbols before reallocating.
    pub fn with_capacity(cap: usize) -> Interner {
        Interner {
            ids: HashMap::with_capacity_and_hasher(cap, FxBuildHasher::default()),
            strings: Vec::with_capacity(cap),
        }
    }

    /// Intern `s`, returning its symbol. The first intern of a string
    /// allocates; every later intern of an equal string is a hash lookup
    /// with no allocation. Panics if the table would exceed `u32::MAX`
    /// symbols (unreachable in practice: symbols are host/URL names).
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.ids.get(s) {
            return sym;
        }
        let id = u32::try_from(self.strings.len()).expect("interner capacity exceeded");
        let sym = Sym(id);
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.ids.insert(boxed, sym);
        sym
    }

    /// Look up the symbol for `s` without interning it.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.ids.get(s).copied()
    }

    /// Resolve a symbol back to its string. Panics on a symbol from a
    /// different interner (index out of range).
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of interned strings (also the next symbol's value).
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// A dense table over interned symbols: slot `sym.index()` holds that
/// symbol's value, `None` until one is inserted, so a lookup is one
/// vector index — no hash, no allocation. Bounded by the interner that
/// issued the symbols (one slot per distinct string, whatever the
/// traffic); the table grows to reach a symbol only when a value is
/// inserted for it.
#[derive(Debug, Clone)]
pub struct SymTable<T>(Vec<Option<T>>);

impl<T> Default for SymTable<T> {
    fn default() -> SymTable<T> {
        SymTable(Vec::new())
    }
}

impl<T> SymTable<T> {
    /// The value held for `sym`, if any.
    #[inline]
    pub fn get(&self, sym: Sym) -> Option<&T> {
        self.0.get(sym.index())?.as_ref()
    }

    /// The slot for `sym`, growing the table to reach it.
    #[inline]
    fn slot(&mut self, sym: Sym) -> &mut Option<T> {
        let i = sym.index();
        if self.0.len() <= i {
            self.0.resize_with(i + 1, || None);
        }
        &mut self.0[i]
    }

    /// Set the value for `sym`, returning the one it replaces.
    #[inline]
    pub fn insert(&mut self, sym: Sym, value: T) -> Option<T> {
        self.slot(sym).replace(value)
    }

    /// The value held for `sym`, computed and stored on first ask.
    #[inline]
    pub fn get_or_insert_with(&mut self, sym: Sym, compute: impl FnOnce() -> T) -> &T {
        self.slot(sym).get_or_insert_with(compute)
    }

    /// Take the value held for `sym` out of the table.
    #[inline]
    pub fn remove(&mut self, sym: Sym) -> Option<T> {
        self.0.get_mut(sym.index())?.take()
    }

    /// Drop every value `keep` rejects (slots stay allocated).
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        for slot in &mut self.0 {
            if slot.as_ref().is_some_and(|v| !keep(v)) {
                *slot = None;
            }
        }
    }

    /// Drop every value and slot.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Bytes the slots occupy.
    pub fn resident_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<Option<T>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sym_table_grows_on_insert_only_and_keeps_slots_on_retain() {
        let mut t = SymTable::default();
        assert_eq!(t.get(Sym(3)), None);
        assert_eq!(t.remove(Sym(3)), None);
        assert_eq!(t.resident_bytes(), 0, "lookups never grow the table");
        assert_eq!(t.insert(Sym(3), 30), None);
        assert_eq!(t.insert(Sym(3), 31), Some(30));
        assert_eq!(*t.get_or_insert_with(Sym(3), || unreachable!()), 31);
        assert_eq!(*t.get_or_insert_with(Sym(1), || 10), 10);
        t.retain(|&v| v != 31);
        assert_eq!((t.get(Sym(1)), t.get(Sym(3))), (Some(&10), None));
        assert_eq!(t.remove(Sym(1)), Some(10));
        t.clear();
        assert_eq!(t.get(Sym(1)), None);
    }

    #[test]
    fn symbols_are_dense_and_stable() {
        let mut i = Interner::new();
        let a = i.intern("facebook.com");
        let b = i.intern("youtube.com");
        assert_eq!(a, Sym(0));
        assert_eq!(b, Sym(1));
        // Re-interning returns the original symbol.
        assert_eq!(i.intern("facebook.com"), a);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn ids_are_deterministic_across_runs() {
        let run = || {
            let mut i = Interner::new();
            ["c.example", "a.example", "b.example", "a.example"]
                .iter()
                .map(|s| i.intern(s).0)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        assert_eq!(run(), vec![0, 1, 2, 1]);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let names = ["x.example", "y.example", "z.example"];
        let syms: Vec<Sym> = names.iter().map(|s| i.intern(s)).collect();
        for (name, sym) in names.iter().zip(&syms) {
            assert_eq!(i.resolve(*sym), *name);
            assert_eq!(i.get(name), Some(*sym));
        }
        assert_eq!(i.get("never-interned"), None);
    }

    #[test]
    fn growth_past_initial_capacity_preserves_symbols() {
        let mut i = Interner::with_capacity(2);
        let early: Vec<Sym> = (0..2)
            .map(|n| i.intern(&format!("host{n}.example")))
            .collect();
        // Grow well past the initial capacity: rehashing must not disturb
        // existing symbols or their resolutions.
        for n in 2..100 {
            i.intern(&format!("host{n}.example"));
        }
        assert_eq!(i.len(), 100);
        assert_eq!(early, vec![Sym(0), Sym(1)]);
        assert_eq!(i.resolve(Sym(0)), "host0.example");
        assert_eq!(i.resolve(Sym(1)), "host1.example");
        assert_eq!(i.get("host99.example"), Some(Sym(99)));
    }

    #[test]
    fn interning_is_case_sensitive_by_design() {
        // Case folding is the caller's policy (DNS folds, URLs don't).
        let mut i = Interner::new();
        assert_ne!(i.intern("Example.COM"), i.intern("example.com"));
    }
}
