// Package symtab provides the shared name-interning symbol table of the
// event pipeline. Element and attribute names are canonicalized to dense
// uint32 symbols exactly once — at tokenization time — and every layer
// above the tokenizer (the merged NFA, the frontier trie, the core
// filter) dispatches on the symbol instead of re-hashing the name string
// per event. This is the interning/dense-dispatch idiom of high-
// throughput parsers: after the first occurrence of a name, looking it up
// again costs the tokenizer one compare in its name cache (a name keyed by
// its first eight bytes as a word, and its length), a map probe here only
// when the cache misses, and a plain integer index everywhere else, with no
// per-event string allocation anywhere.
//
// A Table is shared between a tokenizer and the matching structures bound
// to it; symbols from different tables are not comparable.
//
// # Concurrency
//
// Interning is the table's only mutation, and it is rare: a name is
// interned the first time it is ever seen (at compile time for query node
// tests, at tokenize time for document names) and never again. The table
// exploits that read-mostly shape with a copy-on-write snapshot: all
// lookups — Lookup, LookupBytes, Name, Len, and the warm path of
// Intern/InternBytes — read an immutable view through one atomic pointer
// load, taking no lock and performing no allocation. Only the cold path
// of a snapshot miss takes the writer mutex, where it consults a small
// mutable overflow map of recently interned names; the overflow is
// folded into a freshly built immutable view each time it grows to the
// view's size (doubling thresholds), so every name is copied into a
// published map O(1) times amortized and interning an n-name vocabulary
// costs O(n) total instead of the O(n²) a rebuild-per-name COW would.
// Names still in the overflow pay one uncontended mutex acquisition per
// occurrence until the next fold publishes them — a bounded warm-up
// window, since the fold threshold doubles with the table.
//
// This makes a Table safe for any number of concurrent readers alongside
// concurrent interners, which is what lets a FilterPool bind its N
// engines over one index, and their tokenizers, to one shared table: the
// engines' hot loops read symbols lock-free while whichever of them first
// sees a document name interns it. The
// single-threaded cost over the previous unsynchronized table is one
// atomic load per operation.
package symtab

import (
	"sync"
	"sync/atomic"
)

// Sym is an interned name: a dense index into its Table. The zero value
// None is reserved and never names anything, so zero-valued events are
// unambiguous.
type Sym uint32

// None is the reserved zero symbol.
const None Sym = 0

// view is one immutable snapshot of the table: a probe map and the dense
// name slice. Readers obtain a view with a single atomic load and may use
// it indefinitely; interning never mutates a published view's visible
// contents (the names backing array is append-only, and every element a
// view can index was fully written before that view was published).
type view struct {
	byName map[string]Sym
	names  []string
}

// Table interns strings to dense symbols. The zero symbol is reserved;
// the first interned name gets symbol 1, so a Table with n names has
// Len() == n+1 and valid symbols 1..n. See the package comment for the
// concurrency contract.
type Table struct {
	v  atomic.Pointer[view]
	mu sync.Mutex // guards overflow and serializes interning
	// overflow holds names interned since the last fold that are not yet
	// in the published view's byName map (their symbols ARE in the
	// published names slice). Read and written only under mu.
	overflow map[string]Sym
}

// New returns an empty table. The empty name maps to None, so no dense
// symbol ever aliases the reserved zero slot.
func New() *Table {
	t := &Table{}
	t.v.Store(&view{byName: map[string]Sym{"": None}, names: []string{""}})
	return t
}

// Intern returns the symbol for name, assigning the next dense symbol on
// first sight. The warm path (name already in the published snapshot) is
// lock-free.
func (t *Table) Intern(name string) Sym {
	if s, ok := t.v.Load().byName[name]; ok {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.overflow[name]; ok {
		return s
	}
	cur := t.v.Load()
	if s, ok := cur.byName[name]; ok {
		return s
	}
	return t.insertLocked(cur, name)
}

// InternBytes is Intern for a byte-slice name. When the name is already
// interned no allocation occurs — the compiler elides the string
// conversion in both the snapshot and overflow map probes — which is
// what makes the steady-state tokenizer loop allocation-free. Only a
// genuinely new name materializes the string.
func (t *Table) InternBytes(b []byte) Sym {
	if s, ok := t.v.Load().byName[string(b)]; ok {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.overflow[string(b)]; ok {
		return s
	}
	cur := t.v.Load()
	if s, ok := cur.byName[string(b)]; ok {
		return s
	}
	return t.insertLocked(cur, string(b))
}

// insertLocked assigns the next dense symbol to a name absent from both
// the published view and the overflow. The name lands in the mutable
// overflow map, and a new view is published so Name/Len see the grown
// names slice; the byName map is rebuilt only when the overflow has
// doubled the vocabulary (fold below), keeping total map-copy work
// across n interns at O(n).
func (t *Table) insertLocked(cur *view, name string) Sym {
	s := Sym(len(cur.names))
	// Appending may write into the shared backing array one slot past
	// every published view's length — a slot no published view can reach —
	// and the atomic store below publishes that write before any reader
	// can obtain a view that indexes it.
	names := append(cur.names, name)
	if t.overflow == nil {
		t.overflow = make(map[string]Sym)
	}
	t.overflow[name] = s
	if len(t.overflow) >= len(cur.byName) {
		// Fold: the overflow reached the published map's size, so merging
		// doubles the vocabulary. Each fold costs O(result size) and sizes
		// grow geometrically, so each name is copied O(1) times amortized.
		byName := make(map[string]Sym, len(cur.byName)+len(t.overflow))
		for k, v := range cur.byName {
			byName[k] = v
		}
		for k, v := range t.overflow {
			byName[k] = v
		}
		t.overflow = nil
		t.v.Store(&view{byName: byName, names: names})
	} else {
		t.v.Store(&view{byName: cur.byName, names: names})
	}
	return s
}

// Lookup returns the symbol for name, or None if it has never been
// interned. The miss path re-probes under the lock, where overflow and
// the published view are mutually consistent: a concurrent fold may
// move a name from the overflow into a new view between the lock-free
// probe and the lock acquisition, so the overflow alone is not enough —
// the current view must be re-loaded and checked too.
func (t *Table) Lookup(name string) Sym {
	if s, ok := t.v.Load().byName[name]; ok {
		return s
	}
	t.mu.Lock()
	s, ok := t.overflow[name]
	if !ok {
		s = t.v.Load().byName[name]
	}
	t.mu.Unlock()
	return s
}

// LookupBytes is Lookup for a byte-slice name; it never allocates.
func (t *Table) LookupBytes(b []byte) Sym {
	if s, ok := t.v.Load().byName[string(b)]; ok {
		return s
	}
	t.mu.Lock()
	s, ok := t.overflow[string(b)]
	if !ok {
		s = t.v.Load().byName[string(b)]
	}
	t.mu.Unlock()
	return s
}

// Name returns the canonical string for a symbol of this table. The
// returned string is shared — callers must not assume freshness — which
// is exactly why handing it around costs nothing.
func (t *Table) Name(s Sym) string { return t.v.Load().names[s] }

// Len returns the number of symbol slots including the reserved zero
// slot; valid symbols are 1..Len()-1. Dense per-symbol arrays should be
// sized Len().
func (t *Table) Len() int { return len(t.v.Load().names) }
