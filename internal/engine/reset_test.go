package engine

import (
	"fmt"
	"strings"
	"testing"
)

// TestResetClearsWhatTheDocumentTouched: Reset clears the latch counts the
// last document raised, not the vector the index sizes. A standing set of
// n subscriptions — /a[@k], the continuations /a[@k]/bI/c, whose shared a
// step and every bI step have a latch count, and the threshold group
// /a[@k > I] — has about n/2 of them. After the one-element document
// <a k="1"/> it has latched the same two owners, the a step and the group,
// at n = 100 and at n = 100,000, and Reset writes those entries alone:
// every other entry is left as the test poisoned it.
func TestResetClearsWhatTheDocumentTouched(t *testing.T) {
	cleared := func(n int) int {
		e := New()
		mustAdd(t, e, "a", "/a[@k]")
		for i := 1; i < n; i++ {
			if i%2 == 0 {
				mustAdd(t, e, fmt.Sprint("b", i), fmt.Sprintf("/a[@k]/b%d/c", i))
			} else {
				mustAdd(t, e, fmt.Sprint("g", i), fmt.Sprintf("/a[@k > %d]", i/2-1))
			}
		}
		out, err := e.MatchBytes(nil, []byte(`<a k="1"/>`), CaptureOff)
		if err != nil {
			t.Fatal(err)
		}
		// a, and /a[@k > -1] and /a[@k > 0]: the values 1 satisfies.
		if len(out.IDs) != 3 {
			t.Fatalf("n = %d: matched %v, want a, g1 and g3", n, out.IDs)
		}
		m := e.mt
		if len(m.latched) < n/2 {
			t.Fatalf("n = %d: %d latch counts, want one per bI step and more", n, len(m.latched))
		}
		const poison = -7
		for i, c := range m.latched {
			if c == 0 {
				m.latched[i] = poison
			}
		}
		e.Reset()
		k := 0
		for i, c := range m.latched {
			switch c {
			case 0:
				k++
			case poison:
			default:
				t.Fatalf("n = %d: Reset left latch count %d at %d", n, c, i)
			}
		}
		return k
	}
	small, large := cleared(100), cleared(100_000)
	t.Logf("Reset cleared %d latch counts at 100 subscriptions, %d at 100,000", small, large)
	if small == 0 || small != large {
		t.Errorf("Reset cleared %d latch counts at 100 subscriptions and %d at 100,000; want the same few", small, large)
	}
}

// TestResetTrimsFreeScopes: Reset keeps as many free scopes, and free group
// scope parts, as the last document held open at once, and nothing else the
// matcher holds still points at the scopes it let go. A document nesting 40
// a elements, each a scope of //a[x]/b and of the group //a[v > I], is
// followed by one holding one of each. Then one a scope gates 1,000 b
// matches, and a small document follows: the scopes Reset keeps have room
// for no more commits than the last document's scopes held, append's
// doubling aside, or than keptCommits.
func TestResetTrimsFreeScopes(t *testing.T) {
	e := New()
	mustAdd(t, e, "x", "//a[x]/b")
	for i := 0; i < 3; i++ {
		mustAdd(t, e, fmt.Sprint("v", i), fmt.Sprintf("//a[v > %d]", i))
	}
	free := func() (scopes, groups int) {
		for sc := e.mt.freeScopes; sc != nil; sc = sc.prev {
			scopes++
		}
		for gs := e.mt.freeGroups; gs != nil; gs = gs.next {
			groups++
		}
		return scopes, groups
	}
	deep := strings.Repeat("<a><v>2</v>", 40) + "<b/>" + strings.Repeat("</a>", 40)
	for _, doc := range []string{deep, "<a><v>2</v><b/></a>"} {
		if _, err := e.MatchBytes(nil, []byte(doc), CaptureOff); err != nil {
			t.Fatal(err)
		}
	}
	peak := e.mt.stats.PeakScopes
	if s, g := free(); peak != 2 || s < 40 || g < 40 {
		t.Fatalf("before Reset: peak %d, %d free scopes and %d free group parts; want 2 and at least 40 of each", peak, s, g)
	}
	e.Reset()
	if s, g := free(); s != peak || g > peak {
		t.Errorf("Reset kept %d free scopes and %d free group parts, want %d and at most %d", s, g, peak, peak)
	}
	m := e.mt
	for i, sc := range m.scopes[:cap(m.scopes)] {
		if sc != nil {
			t.Fatalf("the open-scope stack's spare slot %d still points at a scope", i)
		}
	}
	for i, c := range m.cands[:cap(m.cands)] {
		if c.origin != nil {
			t.Fatalf("the candidate scratch's spare slot %d still points at a scope", i)
		}
	}
	for i, p := range m.pendings[:cap(m.pendings)] {
		if p.ob.sc != nil {
			t.Fatalf("the pending scratch's spare slot %d still points at a scope", i)
		}
	}

	wide := "<a>" + strings.Repeat("<b/>", 1000) + "</a>"
	if _, err := e.MatchBytes(nil, []byte(wide), CaptureOff); err != nil {
		t.Fatal(err)
	}
	most := 0
	for sc := m.freeScopes; sc != nil; sc = sc.prev {
		most = max(most, cap(sc.commits))
	}
	if most < 1000 {
		t.Fatalf("after 1,000 gated b matches the largest free scope has room for %d commits, want 1,000 or more", most)
	}
	if _, err := e.MatchBytes(nil, []byte("<a><v>2</v><b/></a>"), CaptureOff); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	for sc := m.freeScopes; sc != nil; sc = sc.prev {
		if c := cap(sc.commits); c > keptCommits {
			t.Errorf("after a document gating one match per scope, a free scope kept room for %d commits", c)
		}
	}
}
