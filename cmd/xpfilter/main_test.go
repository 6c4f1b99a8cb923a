package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamxpath"
	"streamxpath/internal/sax"
	"streamxpath/internal/workload"
)

// xpfilter runs the command on args with stdin, returning what it printed
// and its exit status.
func xpfilter(t *testing.T, stdin []byte, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, bytes.NewReader(stdin), &out, &errb)
	return out.String(), errb.String(), code
}

// newsFeed is cmd/xpgen -kind news -n n -seed seed.
func newsFeed(t *testing.T, n int, seed int64) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := sax.Serialize(&b, workload.RandomNewsFeed(rand.New(rand.NewSource(seed)), n).Events()); err != nil {
		t.Fatal(err)
	}
	b.WriteByte('\n')
	return b.Bytes()
}

type sub struct{ id, q string }

var subs = []sub{{"item", "/news/item"}, {"kw", "//keyword"}, {"hot", "//item[priority > 5]"}, {"fe", "/feed/entry"}}

// corpus writes the two feeds — one of more than 8 KiB, one of between 4
// and 8 — and the subscription file, returning their paths.
func corpus(t *testing.T) (a, b, subsFile string, docs map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	a, b, subsFile = filepath.Join(dir, "a.xml"), filepath.Join(dir, "b.xml"), filepath.Join(dir, "subs.txt")
	docs = map[string][]byte{a: newsFeed(t, 200, 1), b: newsFeed(t, 50, 3)}
	var s strings.Builder
	for _, sb := range subs {
		fmt.Fprintf(&s, "%s %s\n", sb.id, sb.q)
	}
	for name, data := range map[string][]byte{a: docs[a], b: docs[b], subsFile: []byte(s.String())} {
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return a, b, subsFile, docs
}

// mode is one way of running the command, with the library matcher that
// must agree with it.
type mode struct {
	args    []string
	single  bool // -q: the verdict is a boolean
	extract bool
	lim     streamxpath.Limits
}

// expect renders what the library reports for doc, read as input name.
func expect(t *testing.T, m mode, name string, doc []byte) string {
	t.Helper()
	var res streamxpath.MatchResult
	var err error
	n := len(subs)
	if m.single && !m.extract {
		f, ferr := streamxpath.MustCompile(subs[2].q).NewFilter()
		if ferr != nil {
			t.Fatal(ferr)
		}
		f.SetLimits(m.lim)
		res, err = f.MatchReaderResult(bytes.NewReader(doc))
	} else {
		set := streamxpath.NewFilterSet()
		add := set.Add
		if m.extract {
			add = set.AddExtract
		}
		list := subs
		if m.single {
			list, n = []sub{{subs[2].q, subs[2].q}}, 1
		}
		for _, s := range list {
			if err := add(s.id, s.q); err != nil {
				t.Fatal(err)
			}
		}
		set.SetLimits(m.lim)
		res, err = set.MatchReaderResult(bytes.NewReader(doc))
	}
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if m.single {
		fmt.Fprintf(&b, "%s: %v\n", name, len(res.MatchedIDs) > 0)
	} else {
		fmt.Fprintf(&b, "%s: %d/%d matched: %s\n", name, len(res.MatchedIDs), n, strings.Join(res.MatchedIDs, " "))
	}
	if rs := res.ReaderStats; rs.EarlyExit {
		dir := "positive"
		if rs.DecidedNegative {
			dir = "negative"
		}
		fmt.Fprintf(&b, "  early exit (%s): verdicts decided after %d bytes consumed (%d read)\n", dir, rs.BytesConsumed, rs.BytesRead)
	}
	if res.Abstained {
		b.WriteString("  abstained: resource budget hit; verdicts are those decided before the breach\n")
	}
	for _, f := range res.Fragments {
		fmt.Fprintf(&b, "  fragment %s: %s\n", f.ID, f.Data)
	}
	return b.String()
}

// TestRunMatchesLibrary drives -q and -subs, with and without -extract and
// under -on-limit abstain, at -workers 0, 1 and 3, over files and stdin:
// every run prints what the library returns for each input, in argument
// order, whatever the worker count.
func TestRunMatchesLibrary(t *testing.T) {
	a, b, subsFile, docs := corpus(t)
	abstain := streamxpath.Limits{MaxDepth: 2, Policy: streamxpath.LimitAbstain}
	for _, m := range []mode{
		{args: []string{"-q", subs[2].q}, single: true},
		{args: []string{"-q", subs[2].q, "-extract"}, single: true, extract: true},
		{args: []string{"-subs", subsFile}},
		{args: []string{"-subs", subsFile, "-extract"}, extract: true},
		{args: []string{"-subs", subsFile, "-on-limit", "abstain", "-max-depth", "2"}, lim: abstain},
	} {
		wantFiles := expect(t, m, a, docs[a]) + expect(t, m, b, docs[b])
		wantStdin := expect(t, m, "-", docs[a])
		for _, w := range []string{"0", "1", "3"} {
			args := append(append([]string{}, m.args...), "-workers", w)
			out, errOut, code := xpfilter(t, nil, append(args, a, b)...)
			if code != 0 || errOut != "" || out != wantFiles {
				t.Errorf("%v %s %s: exit %d, stderr %q, stdout\n%s\nwant\n%s", args, a, b, code, errOut, out, wantFiles)
			}
			out, errOut, code = xpfilter(t, docs[a], args...)
			if code != 0 || errOut != "" || out != wantStdin {
				t.Errorf("%v < %s: exit %d, stderr %q, stdout\n%s\nwant\n%s", args, a, code, errOut, out, wantStdin)
			}
		}
	}
	// The corpus exercises every line under a verdict.
	seen := expect(t, mode{extract: true}, a, docs[a]) + expect(t, mode{lim: abstain}, a, docs[a])
	for _, line := range []string{"  early exit (negative)", "  fragment hot: <item>", "  abstained: "} {
		if !strings.Contains(seen, line) {
			t.Errorf("no expected output holds %q:\n%s", line, seen)
		}
	}
}

// TestRunStats: -stats prints each input's own MemStats under it and the
// engine's Stats once, after the last input.
func TestRunStats(t *testing.T) {
	a, b, subsFile, docs := corpus(t)
	out, errOut, code := xpfilter(t, nil, "-subs", subsFile, "-stats", "-workers", "3", a, b)
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	var want strings.Builder
	for _, name := range []string{a, b} {
		set := streamxpath.NewFilterSet()
		for _, s := range subs {
			if err := set.Add(s.id, s.q); err != nil {
				t.Fatal(err)
			}
		}
		res, err := set.MatchReaderResult(bytes.NewReader(docs[name]))
		if err != nil {
			t.Fatal(err)
		}
		want.WriteString(expect(t, mode{}, name, docs[name]))
		fmt.Fprintf(&want, "  %s\n", res.MemStats)
	}
	body, last, _ := strings.Cut(out, "  subs=4 ")
	if body != want.String() || strings.Count(last, "\n") != 1 {
		t.Errorf("stdout\n%s\nwant\n%s  subs=4 …", out, want.String())
	}
}

// TestRunExitCodes: 1 for a query that does not stream, reported once; 2
// for a usage error, -bench included; 1 for a missing input, the others
// still reported in order.
func TestRunExitCodes(t *testing.T) {
	a, b, subsFile, docs := corpus(t)
	out, errOut, code := xpfilter(t, nil, "-q", "//item[title or body]", "-workers", "2", a, b)
	if code != 1 || out != "" ||
		errOut != "xpfilter: query is not streamable (fragment: query not conjunctive: predicate uses or); use -eval\n" {
		t.Errorf("non-streamable -q: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	for _, args := range [][]string{
		{a},
		{"-q", "//item", "-subs", subsFile, a},
		{"-subs", subsFile, "-eval", a},
		{"-q", "//item", "-on-limit", "skip", a},
		{"-q", "//item", "-bench", "3", a},
	} {
		if _, errOut, code := xpfilter(t, nil, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, errOut)
		}
	}
	missing := filepath.Join(filepath.Dir(a), "missing.xml")
	out, errOut, code = xpfilter(t, nil, "-subs", subsFile, "-workers", "2", a, missing, b)
	want := expect(t, mode{}, a, docs[a]) + expect(t, mode{}, b, docs[b])
	if code != 1 || out != want || !strings.HasPrefix(errOut, "xpfilter: "+missing+": ") || strings.Count(errOut, "\n") != 1 {
		t.Errorf("missing input: exit %d, stderr %q, stdout\n%s\nwant\n%s", code, errOut, out, want)
	}
}
