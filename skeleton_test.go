// Differential tests for the trie route's structural dispatch: spine
// continuations are offered by the merged NFA's states an element enters,
// once per open scope of their parent step, instead of being held as
// frontier tuples, so the shapes where one element finds several parent
// scopes, several states, or a step whose subscriptions have all matched
// are pinned here against the tree oracle
// (internal/semantics) — verdicts and fragments, buffered and chunked at
// every split offset, and again with budgets breached mid-document.
package streamxpath_test

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"streamxpath"
	"streamxpath/internal/query"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
)

// skeletonCases are standing subscription sets with the documents that
// exercise one hard case each. Every query is trie-routed (predicated or
// attribute-selecting) and every document is in canonical form, so
// zero-copy fragments compare equal to the reference serializer's.
var skeletonCases = []struct {
	name string
	subs []string
	docs []string
}{
	// Nested same-name elements under a descendant step: two open scopes
	// of one step, each candidate gated by its own origin scope.
	{"nested-same-name", []string{`//a[b]//a/c`, `//a[b]//a[d]/c`, `//a//a[b]`}, []string{
		`<a><b></b><a><c></c></a></a>`,
		`<a><a><c></c></a></a>`,
		`<a><a><b></b><a><c></c><d></d></a></a></a>`,
		`<r><a><a><b></b></a><a><c></c></a></a></r>`,
		`<a><a><a><c></c></a><b></b></a></a>`,
	}},
	// One element entering a named and a wildcard state at once.
	{"named-and-wildcard", []string{`//r/x[p]/y`, `//r/*[q]/y`, `//r[k]/x`, `//r[k]/*`, `/r/*[p]//*[q]`}, []string{
		`<r><k></k><x><p></p><q></q><y></y></x></r>`,
		`<r><x><q></q><y></y></x><z><p></p><y></y></z></r>`,
		`<r><x><p></p><y><q></q></y></x></r>`,
		`<s><r><k></k><w></w></r></s>`,
	}},
	// An attribute continuation under a predicated step.
	{"attribute-under-predicate", []string{`//item[priority > 3]/@id`, `//item[priority > 3]/@*`, `//item[priority > 8]/name`}, []string{
		`<feed><item id="a"><priority>2</priority></item><item id="b" lang="en"><priority>5</priority><name>n</name></item></feed>`,
		`<feed><item><priority>9</priority><name id="x">n</name></item></feed>`,
		`<feed><item id="c"><priority>1</priority><item id="d"><priority>4</priority></item></item></feed>`,
	}},
	// A predicated terminal that also has continuations.
	{"terminal-with-continuations", []string{`//a[b]`, `//a[b]/c`, `//a[b]/c[d]`, `//a[b]/c/@k`}, []string{
		`<r><a><c k="1"><d></d></c><b></b></a></r>`,
		`<r><a><c></c></a><a><b></b></a></r>`,
		`<a><a><b></b><c></c></a></a>`,
	}},
	// A prefix whose last subscription latches mid-document, with more
	// siblings (and more candidates for the dead step) after it.
	{"latch-then-siblings", []string{`//catalog/item[priority > 3]/f1`, `//catalog/item/@id`, `//catalog/item[priority > 3]/f2`}, []string{
		`<catalog><item id="1"><priority>5</priority><f1></f1></item><item id="2"><priority>9</priority><f1></f1><f2></f2></item><item><priority>1</priority><f2></f2></item></catalog>`,
		`<catalog><item><priority>1</priority><f1></f1></item><item id="3"><priority>4</priority><f2></f2><f1></f1></item><item><f1></f1></item></catalog>`,
	}},
	// Steps that differ only in a constant are one predicate group per
	// operator class — here >, <, numeric = and textual = on one step, the
	// first with a predicated terminal that also has continuations: a
	// continuation before the value, two values in either order, a value that
	// satisfies no member, padded and non-numeric text, and an item inside
	// an item, each with its own group scope.
	{"threshold-group", []string{
		`//item[priority > 3]/f1`, `//item[priority > 5]/f1`, `//item[priority >= 9]/f1`, `//item[priority > 5]`,
		`//item[priority > 3]/f1/@id`, `//item[priority < 2]/f1`, `//item[priority <= 5]`, `//item[priority = 5]/f1`,
		`//item[priority != 5]/f1`, `//item[priority = "n/a"]/f1`, `//item[priority > 5]//f2`,
	}, []string{
		`<feed><item><f1 id="a"></f1><priority>5</priority></item></feed>`,
		`<feed><item><priority>1</priority><f1></f1><priority>9</priority></item></feed>`,
		`<feed><item><priority>9</priority><priority>1</priority><f1 id="b"></f1></item></feed>`,
		`<feed><item><priority>0</priority><f1></f1></item><item><priority>2</priority><f1></f1></item></feed>`,
		`<feed><item><priority> 5 </priority><f1></f1></item><item><priority>n/a</priority><f1></f1></item></feed>`,
		`<feed><item><priority>4</priority><item><f1></f1><priority>7</priority><g><f2></f2></g></item><f1 id="c"></f1></item></feed>`,
		`<feed><item><item><priority>1</priority></item><priority>6</priority><f2></f2></item></feed>`,
	}},
	// The continuations of one group's members along one edge are one run,
	// split by the group scope's boundary: thresholds with equal constants
	// under > and >=, a continuation with a predicate of its own (one no
	// group takes, one a group does) and ones with a further step, the same
	// below equality, != and < groups and below a second edge. The documents
	// put the continuation before the value (the held range resolves when the
	// item closes), between two values, and after 1-then-9 and 9-then-1.
	{"group-continuations", []string{
		`//item[priority > 1]/f`, `//item[priority > 5]/f`, `//item[priority >= 5]/f`, `//item[priority > 7]/f`,
		`//item[priority > 5]/g`, `//item[priority > 3]/f[k]`, `//item[priority > 3]/f[k > 1]`, `//item[priority > 3]/f/h`,
		`//item[priority > 7]/f/@id`, `//item[priority = 5]/f`, `//item[priority != 5]/f`, `//item[priority = 9]/f/h`,
		`//item[priority < 2]/f`, `//item[code = "x"]/f`,
	}, []string{
		`<feed><item><f id="a"></f><priority>5</priority></item></feed>`,
		`<feed><item><priority>1</priority><f></f><priority>9</priority><f id="b"><k>2</k><h></h></f></item></feed>`,
		`<feed><item><priority>9</priority><priority>1</priority><f id="c"><h></h><k></k></f><g></g></item></feed>`,
		`<feed><item><f id="d"><k>3</k><h></h></f><g></g><priority>6</priority><code>x</code></item></feed>`,
		`<feed><item><priority>2</priority><item><f></f><priority>8</priority></item><f></f></item><item><f></f></item></feed>`,
		`<feed><item><code>x</code><f></f><code>y</code></item><item><f></f><priority>5</priority><priority>9</priority></item></feed>`,
	}},
}

// extractMode says which subscriptions of a skeleton case are registered
// with extraction.
type extractMode int

const (
	extractNone extractMode = iota
	extractAll
	// extractEven: s0, s2, … only, so that some members of a predicate
	// group want the candidate element's fragment and others do not.
	extractEven
)

// String names the mode as the subtests always have: extract=false,
// extract=true, and now extract=even.
func (m extractMode) String() string {
	return [...]string{"false", "true", "even"}[m]
}

// wants reports whether subscription id (s<i> for extractEven) extracts.
func (m extractMode) wants(id string) bool {
	if m != extractEven {
		return m == extractAll
	}
	var i int
	fmt.Sscanf(id, "s%d", &i)
	return i%2 == 0
}

// skeletonSet registers subs under ids s0, s1, …, those extract selects with
// extraction.
func skeletonSet(t *testing.T, subs []string, extract extractMode) *streamxpath.FilterSet {
	t.Helper()
	set := streamxpath.NewFilterSet()
	for i, src := range subs {
		id := fmt.Sprintf("s%d", i)
		add := set.Add
		if extract.wants(id) {
			add = set.AddExtract
		}
		if err := add(id, src); err != nil {
			t.Fatalf("add %s: %v", src, err)
		}
	}
	return set
}

// skeletonTruth is the oracle's answer for ids → queries over doc: the
// matching ids in id order and each one's reference fragment.
func skeletonTruth(ids, subs []string, doc string) (matched []string, frags map[string]string) {
	d := tree.MustParse(doc)
	frags = map[string]string{}
	for i, src := range subs {
		q := query.MustParse(src)
		if !semantics.BoolEval(q, d) {
			continue
		}
		matched = append(matched, ids[i])
		frags[ids[i]], _ = refFragment(q, d)
	}
	return matched, frags
}

// checkSkeleton compares one result against the oracle. An abstained
// result may miss matches but never invent one; its fragments, like a
// complete result's, must be the reference ones.
func checkSkeleton(t *testing.T, label string, res streamxpath.MatchResult, extract extractMode, want []string, frags map[string]string) {
	t.Helper()
	if res.Abstained {
		for _, id := range res.MatchedIDs {
			if _, ok := frags[id]; !ok {
				t.Fatalf("%s: abstained result matched %s, oracle does not (truth %v)", label, id, want)
			}
		}
	} else {
		assertSameIDs(t, label, res.MatchedIDs, want)
	}
	for _, f := range res.Fragments {
		if !extract.wants(f.ID) {
			t.Fatalf("%s: fragment for %s, which does not extract", label, f.ID)
		}
		if string(f.Data) != frags[f.ID] {
			t.Fatalf("%s: fragment %s:\n  got  %q\n  want %q", label, f.ID, f.Data, frags[f.ID])
		}
	}
	extracting := 0
	for _, id := range want {
		if extract.wants(id) {
			extracting++
		}
	}
	if !res.Abstained && len(res.Fragments) != extracting {
		t.Fatalf("%s: %d fragments for %d extracting matches", label, len(res.Fragments), extracting)
	}
}

// matchEverywhere runs doc through MatchBytesResult and through
// MatchReaderResult split at every offset, checking each result.
func matchEverywhere(t *testing.T, label string, set *streamxpath.FilterSet, extract extractMode, ids, subs []string, doc string) {
	t.Helper()
	want, frags := skeletonTruth(ids, subs, doc)
	data := []byte(doc)
	res, err := set.MatchBytesResult(data)
	if err != nil {
		t.Fatalf("%s: MatchBytesResult: %v", label, err)
	}
	checkSkeleton(t, label+" buffered", res, extract, want, frags)
	for off := 0; off <= len(data); off++ {
		res, err := set.MatchReaderResult(&boundaryReader{data: data, split: off})
		if err != nil {
			t.Fatalf("%s: split %d: MatchReaderResult: %v", label, off, err)
		}
		checkSkeleton(t, fmt.Sprintf("%s split %d", label, off), res, extract, want, frags)
	}
}

func TestSkeletonDispatchAgainstOracle(t *testing.T) {
	for _, c := range skeletonCases {
		for _, extract := range []extractMode{extractNone, extractAll, extractEven} {
			t.Run(fmt.Sprintf("%s/extract=%v", c.name, extract), func(t *testing.T) {
				set := skeletonSet(t, c.subs, extract)
				ids := set.IDs()
				for _, doc := range c.docs {
					matchEverywhere(t, doc, set, extract, ids, c.subs, doc)
				}
				// The same set under every live-state budget from "breached by
				// the root element's first child, if not by the root" to "never
				// breached": each breach abandons open frames mid-document, and
				// the next document must not see them.
				for budget := 1; budget <= 16; budget++ {
					set.SetLimits(streamxpath.Limits{MaxLiveTuples: budget, Policy: streamxpath.LimitAbstain})
					for _, doc := range c.docs {
						matchEverywhere(t, fmt.Sprintf("budget %d: %s", budget, doc), set, extract, ids, c.subs, doc)
					}
				}
			})
		}
	}
}

// TestSkeletonRebuiltAcrossAddRemove: Add and Remove between documents
// patch the trie and its skeleton, and a frame is never used with fewer
// slots than its skeleton node has members — including after a document
// abandoned mid-stream.
func TestSkeletonRebuiltAcrossAddRemove(t *testing.T) {
	docs := []string{
		`<a><b></b><c></c><a><d><e></e></d></a></a>`,
		`<r><a><c></c><b></b></a><a><b></b><d><e></e></d></a></r>`,
	}
	subs := map[string]string{"p": `//a[b]/c`, "q": `//a[b]`, "r": `//a[b]//d/e`}
	set := streamxpath.NewFilterSet()
	check := func(step string) {
		t.Helper()
		ids := set.IDs()
		srcs := make([]string, len(ids))
		for i, id := range ids {
			srcs[i] = subs[id]
		}
		for _, doc := range docs {
			matchEverywhere(t, step+": "+doc, set, extractAll, ids, srcs, doc)
		}
	}
	mustAdd := func(id string) {
		t.Helper()
		if err := set.AddExtract(id, subs[id]); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd("p")
	mustAdd("q")
	check("p,q")
	set.Remove("p")
	mustAdd("r")
	check("q,r")
	// Abandon a document with frames open, then change the set again.
	set.SetLimits(streamxpath.Limits{MaxDepth: 2})
	if _, err := set.MatchBytesResult([]byte(docs[0])); err == nil {
		t.Fatal("depth budget not enforced")
	}
	set.SetLimits(streamxpath.Limits{})
	check("q,r after abort")
	set.Remove("q")
	mustAdd("p")
	check("r,p")
}

// disseminationSubs builds n subscriptions of one topology:
//
//   - shared:       //catalog/item/f<i> — one two-step prefix;
//   - disjoint:     //p<i>/c<i> — nothing shared;
//   - predshared:   //catalog/item[priority > k]/f<j> — ten predicated
//     prefixes × n/10 leaves;
//   - preddisjoint: //catalog/item[priority > i]/f<i> — every
//     subscription its own threshold and leaf.
func disseminationSubs(topology string, n int) []string {
	subs := make([]string, n)
	for i := range subs {
		switch topology {
		case "shared":
			subs[i] = fmt.Sprintf("//catalog/item/f%d", i)
		case "disjoint":
			subs[i] = fmt.Sprintf("//p%d/c%d", i, i)
		case "predshared":
			subs[i] = fmt.Sprintf("//catalog/item[priority > %d]/f%d", i%10, i%(n/10+1))
		case "preddisjoint":
			subs[i] = fmt.Sprintf("//catalog/item[priority > %d]/f%d", i, i)
		}
	}
	return subs
}

// disseminationDoc builds the feed document: a catalog of items carrying
// a few of the subscribed leaf names, so a small fraction of
// subscriptions match.
func disseminationDoc(items int) string {
	var b strings.Builder
	b.WriteString("<catalog>")
	for j := 0; j < items; j++ {
		fmt.Fprintf(&b, "<item><priority>%d</priority><f%d/><f%d/></item>", j%12, j, j+items)
	}
	b.WriteString("</catalog>")
	return b.String()
}

// trieCounts matches doc against subs and returns the counts the scaling
// pin compares, with ⌈log₂|Q|⌉ — the cost model's per-tuple node-name
// term, the one input of EstimatedBits that grows with the standing set
// rather than with the matching state.
func trieCounts(t *testing.T, subs []string, doc string) (st streamxpath.FilterSetStats, mem streamxpath.MemStats, nameBits int) {
	t.Helper()
	set := skeletonSet(t, subs, extractNone)
	res, err := set.MatchBytesResult([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	st = set.Stats()
	return st, res.MemStats, bits.Len(uint(st.SharedStates + st.PredNodes - 1))
}

// TestTrieStateIndependentOfLeafFanout pins, by counts alone, that a
// predicated prefix costs the same state and the same state maintenance
// however many subscriptions hang off it: spine continuations are looked
// up, not inserted. EstimatedBits may differ between two standing sets
// only by the node-name term on the (equal) live tuples.
func TestTrieStateIndependentOfLeafFanout(t *testing.T) {
	same := func(label string, a, b []string, doc string) {
		t.Helper()
		sa, ma, na := trieCounts(t, a, doc)
		sb, mb, nb := trieCounts(t, b, doc)
		if sa.FrontierInserts != sb.FrontierInserts || sa.FrontierInserts == 0 {
			t.Errorf("%s: FrontierInserts %d vs %d", label, sa.FrontierInserts, sb.FrontierInserts)
		}
		if ma.PeakLiveTuples != mb.PeakLiveTuples {
			t.Errorf("%s: PeakLiveTuples %d vs %d", label, ma.PeakLiveTuples, mb.PeakLiveTuples)
		}
		if got, want := mb.EstimatedBits-ma.EstimatedBits, ma.PeakLiveTuples*(nb-na); got != want {
			t.Errorf("%s: EstimatedBits %d vs %d: differ by %d, want %d (live tuples × node-name bits %d vs %d)",
				label, ma.EstimatedBits, mb.EstimatedBits, got, want, na, nb)
		}
	}

	// Ten predicated prefixes × 10 or 1,000 leaves each. f0 only occurs
	// under priority 0, so no prefix runs out of unmatched subscriptions
	// (and stops opening scopes) in either set.
	fanout := func(leaves int) []string {
		var subs []string
		for k := 0; k < 10; k++ {
			for j := 0; j < leaves; j++ {
				subs = append(subs, fmt.Sprintf("//catalog/item[priority > %d]/f%d", k, j))
			}
		}
		return subs
	}
	doc := disseminationDoc(40)
	same("leaf fan-out 10 vs 1000", fanout(10), fanout(1000), doc)
	same("predshared 100 vs 10000",
		disseminationSubs("predshared", 100), disseminationSubs("predshared", 10000), doc)
}

// TestTrieStateIndependentOfThresholdFanout is the same pin along the other
// axis: however many thresholds subscribers hang on one step, an open
// candidate holds one group scope, one tuple and one buffering value, so the
// peak live state of 1, 10 and 100 thresholds is identical.
func TestTrieStateIndependentOfThresholdFanout(t *testing.T) {
	doc := disseminationDoc(40)
	var peaks [][3]int
	for _, n := range []int{1, 10, 100} {
		var subs []string
		for k := 0; k < n; k++ {
			subs = append(subs, fmt.Sprintf("//catalog/item[priority > %d]/f%d", k, k%3))
		}
		st, mem, _ := trieCounts(t, subs, doc)
		if st.PredGroups != 1 || st.LargestGroup != n {
			t.Fatalf("%d thresholds: %d groups, largest %d", n, st.PredGroups, st.LargestGroup)
		}
		peaks = append(peaks, [3]int{mem.PeakLiveTuples, mem.PeakScopes, mem.PeakPendings})
	}
	if peaks[0] != peaks[1] || peaks[1] != peaks[2] {
		t.Errorf("peak live/scopes/pendings for 1, 10, 100 thresholds: %v, want them identical", peaks)
	}
}

// TestGroupContinuationVisitsIndependentOfFanout pins the third axis: an
// element that continues the members of a predicate group is one visit — one
// probe of the group's scope, one search against its boundary — whether 1,
// 10 or 100 thresholds hang on the step, and whether the boundary puts none
// or half of them on the satisfied side. Every set keeps its one
// unsatisfiable threshold, so no set runs out of subscriptions to match and
// stops being offered elements.
func TestGroupContinuationVisitsIndependentOfFanout(t *testing.T) {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < 40; i++ {
		// The continuation after the value, before it, and between two.
		switch p := 900 + 3*i; i % 3 {
		case 0:
			fmt.Fprintf(&b, "<item><priority>%d</priority><f0></f0></item>", p)
		case 1:
			fmt.Fprintf(&b, "<item><f0></f0><priority>%d</priority></item>", p)
		default:
			fmt.Fprintf(&b, "<item><priority>%d</priority><f0></f0><priority>1</priority></item>", p)
		}
	}
	b.WriteString("</catalog>")
	doc := b.String()
	root := tree.MustParse(doc)
	var visits []int
	for _, n := range []int{1, 10, 100} {
		var subs []string
		for k := 0; k < n; k++ {
			subs = append(subs, fmt.Sprintf("//catalog/item[priority > %d]/f0", 1100-k))
		}
		set := skeletonSet(t, subs, extractNone)
		got, err := set.MatchBytes([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for k, src := range subs {
			if semantics.BoolEval(query.MustParse(src), root) {
				want = append(want, fmt.Sprintf("s%d", k))
			}
		}
		if n == 100 && len(want) < 10 {
			t.Fatalf("%d thresholds: only %d satisfied, the split is not exercised", n, len(want))
		}
		assertSameIDs(t, fmt.Sprintf("%d thresholds", n), got, want)
		visits = append(visits, set.Stats().TupleVisits)
	}
	if visits[0] == 0 || visits[0] != visits[1] || visits[1] != visits[2] {
		t.Errorf("TupleVisits for 1, 10, 100 thresholds: %v, want them identical", visits)
	}
}
