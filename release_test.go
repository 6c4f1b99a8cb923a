package streamxpath

import (
	"runtime"
	"testing"
	"weak"
)

// releaseDoc is a document that leaves every kind of reference an engine
// could keep into it: text runs the batch hands over as subslices, and
// attribute values the tokenizer stages. //r/b decides it only at its
// end, so all of it is dispatched; //r/a decides it at <a>, so the rest is
// skimmed.
const releaseDoc = `<r><a x="value" y="more">some text</a><b z="v"/>tail<c>t</c></r>`

// matchReleased matches a fresh copy of releaseDoc with match and returns a
// weak pointer to it, which must be the copy's only reference once match
// has returned.
func matchReleased(t *testing.T, match func([]byte) ([]string, error)) weak.Pointer[[len(releaseDoc)]byte] {
	t.Helper()
	buf := new([len(releaseDoc)]byte)
	copy(buf[:], releaseDoc)
	if _, err := match(buf[:]); err != nil {
		t.Fatal(err)
	}
	return weak.Make(buf)
}

// collected reports whether every document the weak pointers refer to has
// been collected.
func collected(wps []weak.Pointer[[len(releaseDoc)]byte]) bool {
	for range 3 {
		runtime.GC()
	}
	for _, wp := range wps {
		if wp.Value() != nil {
			return false
		}
	}
	return true
}

// TestMatchBytesReleasesDocument: an engine back in its ring keeps nothing
// of the document it matched — not the tokenizer's window, the Text events
// of its batch buffer, nor the attribute events it staged — so a caller's
// buffer is collectable as soon as MatchBytes returns, on a FilterSet and
// on every engine of a FilterPool(4), whose ring hands its engines out in
// turn.
func TestMatchBytesReleasesDocument(t *testing.T) {
	for _, q := range []string{"//r/b", "//r/a", "//r[c = 't']"} {
		set := NewFilterSet()
		pool := NewFilterPool(4)
		for _, m := range []interface{ Add(id, q string) error }{set, pool} {
			if err := m.Add("s", q); err != nil {
				t.Fatal(err)
			}
		}
		wps := []weak.Pointer[[len(releaseDoc)]byte]{matchReleased(t, set.MatchBytes)}
		if !collected(wps) {
			t.Errorf("%s: the FilterSet keeps the document it matched", q)
		}
		wps = wps[:0]
		for range 4 {
			wps = append(wps, matchReleased(t, pool.MatchBytes))
		}
		if !collected(wps) {
			t.Errorf("%s: an engine of the FilterPool keeps the document it matched", q)
		}
		runtime.KeepAlive(set)
		runtime.KeepAlive(pool)
	}
}
