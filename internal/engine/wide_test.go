package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// widePred returns the i-th conjunct of a wide step, by i mod 6: a child
// existence leaf, a descendant one, an attribute, a restricted numeric leaf,
// a textual != whose cursor dies at the first byte no constant continues,
// and a predicate node of two conjuncts with one of two nested in it.
func widePred(i int) string {
	switch i % 6 {
	case 0:
		return fmt.Sprintf("c%d", i)
	case 1:
		return fmt.Sprintf(".//d%d", i)
	case 2:
		return fmt.Sprintf("@k%d", i)
	case 3:
		return fmt.Sprintf("v%d > 5", i)
	case 4:
		return fmt.Sprintf(`t%d != "abc"`, i)
	}
	return fmt.Sprintf("n%d[x and y[z and @w]]", i)
}

// wideChild returns what an a element holds for its i-th conjunct: its
// attribute when the conjunct is one, else its content, which satisfies the
// conjunct when ok. A predicate node's content first offers a candidate
// that falls short, which parks the obligation and unparks it again.
func wideChild(i int, ok bool) (attr, content string) {
	switch i % 6 {
	case 0:
		if ok {
			return "", fmt.Sprintf("<c%d/>", i)
		}
		return "", fmt.Sprintf("<w><c%d/></w>", i)
	case 1:
		if ok {
			return "", fmt.Sprintf("<w><u><d%d/></u></w>", i)
		}
		return "", ""
	case 2:
		if ok {
			return fmt.Sprintf(` k%d="1"`, i), ""
		}
		return fmt.Sprintf(` j%d="1"`, i), ""
	case 3:
		if ok {
			return "", fmt.Sprintf("<v%d>3</v%d><v%d>7</v%d>", i, i, i, i)
		}
		return "", fmt.Sprintf("<v%d>3</v%d>", i, i)
	case 4:
		if ok {
			return "", fmt.Sprintf("<t%d>abc</t%d><t%d>abd</t%d>", i, i, i, i)
		}
		return "", fmt.Sprintf("<t%d>abc</t%d>", i, i)
	}
	w := ""
	if ok {
		w = ` w="1"`
	}
	return "", fmt.Sprintf("<n%d><x/><y><z/></y></n%d><n%d><y%s><z/></y><x/></n%d>", i, i, i, w, i)
}

// wideDoc draws an a element for conjuncts [0, k), each satisfied unless
// fail says otherwise, in a random order, with an a nested in it at depth
// nest.
func wideDoc(rng *rand.Rand, k int, fail func(int) bool, nest int) string {
	var attrs, kids []string
	for i := 0; i < k; i++ {
		a, c := wideChild(i, !fail(i))
		attrs = append(attrs, a)
		if c != "" {
			kids = append(kids, c)
		}
	}
	rng.Shuffle(len(kids), func(i, j int) { kids[i], kids[j] = kids[j], kids[i] })
	if nest > 0 {
		kids = slices.Insert(kids, rng.Intn(len(kids)+1), wideDoc(rng, k, fail, nest-1))
	}
	return "<a" + strings.Join(attrs, "") + ">" + strings.Join(kids, "") + "</a>"
}

// TestManyConjuncts holds steps of 1, 2, 9, 63, 64, 65 and 130 conjuncts —
// a scope's matched bits one word, two from 65 on, three at 130 — to the
// tree evaluator, event by event with the live state recounted (stepFold)
// and whole, buffered and read in chunks of 1 and 512 bytes. The
// documents satisfy every conjunct, all but one, or each at random, with a
// satisfied a nested inside one that is not and the other way round.
func TestManyConjuncts(t *testing.T) {
	ks := []int{1, 2, 9, 63, 64, 65, 130}
	var subs []string
	for _, k := range ks {
		preds := make([]string, k)
		for i := range preds {
			preds[i] = widePred(i)
		}
		subs = append(subs, "//a["+strings.Join(preds, " and ")+"]")
	}
	e := loneEngine(t, subs)
	rng := rand.New(rand.NewSource(1))
	var docs []string
	for _, miss := range []int{-1, 0, 1, 2, 3, 4, 5, 8, 62, 63, 64, 129} {
		docs = append(docs, "<r>"+wideDoc(rng, 130, func(i int) bool { return i == miss }, 1)+"</r>")
	}
	for range 6 {
		p := rng.Float64() * 0.05
		docs = append(docs, "<r>"+wideDoc(rng, 130, func(int) bool { return rng.Float64() < p }, 2)+"</r>")
	}
	inner := wideDoc(rng, 130, func(int) bool { return false }, 0)
	outer := wideDoc(rng, 130, func(i int) bool { return i == 70 }, 0)
	docs = append(docs, strings.Replace(outer, "</a>", inner+"</a>", 1))
	outer = wideDoc(rng, 130, func(int) bool { return false }, 0)
	inner = wideDoc(rng, 130, func(i int) bool { return i == 70 }, 0)
	docs = append(docs, strings.Replace(outer, "</a>", inner+"</a>", 1))

	seen := map[int]bool{}
	for _, doc := range docs {
		ms := stepFold(t, e, subs, doc)
		if ms.PeakLiveTuples == 0 {
			t.Fatalf("%.80s: nothing live", doc)
		}
		want := truth(subs, doc)
		seen[len(want)] = true
		out, err := e.MatchBytes(nil, []byte(doc), CaptureOff)
		if err != nil || !slices.Equal(out.IDs, want) {
			t.Fatalf("%.80s: MatchBytes %v (%v), the tree evaluator %v", doc, out.IDs, err, want)
		}
		for _, chunk := range []int{1, 512} {
			out, err := e.MatchReader(nil, strings.NewReader(doc), chunk, CaptureOff)
			if err != nil || !slices.Equal(out.IDs, want) {
				t.Fatalf("%.80s: MatchReader at chunk %d %v (%v), the tree evaluator %v", doc, chunk, out.IDs, err, want)
			}
		}
	}
	for _, n := range []int{0, 2, 3, 4, 7} {
		if !seen[n] {
			t.Errorf("no document matches exactly %d of the steps", n)
		}
	}
}
