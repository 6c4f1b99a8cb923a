// Command xpfilter filters XML documents against Forward XPath queries in
// a single streaming pass, printing the match result of each input in
// argument order.
//
// Usage:
//
//	xpfilter -q '/news/item[priority > 5]' file1.xml file2.xml
//	cat doc.xml | xpfilter -q '//a[b and c]'
//	xpfilter -q '/a/b' -analyze
//	xpfilter -subs subscriptions.txt feed1.xml feed2.xml
//	xpfilter -subs subscriptions.txt -workers 4 feed*.xml
//
// Every query runs on one FilterPool of max(-workers, 1) engines sharing
// one subscription index. With -q the pool holds that one query, under its
// own text as its id — which is what a Filter is — and each input prints
// whether it matched. With -subs the file names one standing subscription
// per line (either "id <tab-or-space> query" or a bare query, identified
// by its own text), and each input prints the ids it matched.
//
// Inputs — files, or stdin when none is named or for "-" — stream through
// MatchReaderResult, at most -workers at a time: each is read in windows
// of at most -chunk bytes and matched as it arrives, so memory stays
// bounded by the chunk size plus the open-element depth, whatever the
// document's size; the moment every verdict is decided the reader stops
// and the bytes consumed are reported. An input's lines print as soon as
// it and every earlier input are done. -extract captures each matched
// query's subtree (the document-order-first match) and prints it under the
// verdict, as its bytes appear in the input: the window keeps an element's
// bytes while it is being captured, which -max-buffer bounds. -stats prints each input's own memory accounting under it,
// including the optimality ratio of estimated bits against the paper's
// lower bound, and the engine's shared-structure sizes once, after the
// last input.
//
// -analyze prints a -q query's analysis; -eval prints the values the -q
// query selects, evaluated in memory, for queries outside the streamable
// fragment.
//
// Resource limits: -max-depth, -max-token, -max-buffer, -max-tuples and
// -max-doc set hard per-document budgets on open-element depth, single
// token size, buffered predicate text, live frontier state and total
// document bytes (0 = unlimited). A breached budget fails the document
// with a typed error by default; -on-limit abstain degrades gracefully
// instead, returning the verdicts decided before the breach (matching
// is monotone, so they are final) and tagging the output line.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"streamxpath"
	"streamxpath/internal/buildinfo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the command: it parses args, reads stdin for the input "-",
// prints to stdout and stderr, and returns the exit status — 0, 1 when an
// input, the query or the subscription file fails, 2 on a usage error.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xpfilter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		version  = fs.Bool("version", false, "print version and exit")
		querySrc = fs.String("q", "", "Forward XPath query")
		subsFile = fs.String("subs", "", "file of standing subscriptions (one per line); match all in one pass")
		stats    = fs.Bool("stats", false, "print each input's memory statistics, and the engine's after the last")
		analyze  = fs.Bool("analyze", false, "print query analysis and exit")
		evaluate = fs.Bool("eval", false, "print selected node values instead of a boolean (in-memory evaluation)")
		extract  = fs.Bool("extract", false, "capture and print each matched query's subtree")
		workers  = fs.Int("workers", 0, "match up to N inputs at a time on a pool of N engines (0 = 1)")
		chunk    = fs.Int("chunk", 0, "largest streaming read in bytes (0 = 64KiB default); each document's reads start at 4KiB and grow to it as the document fills them")

		maxDepth  = fs.Int("max-depth", 0, "max open-element depth per document (0 = unlimited)")
		maxToken  = fs.Int("max-token", 0, "max bytes of a single token (0 = unlimited)")
		maxBuffer = fs.Int("max-buffer", 0, "max bytes of buffered predicate text (0 = unlimited)")
		maxTuples = fs.Int("max-tuples", 0, "max live frontier tuples/scopes/pendings (0 = unlimited)")
		maxDoc    = fs.Int64("max-doc", 0, "max total document bytes (0 = unlimited)")
		onLimit   = fs.String("on-limit", "fail", "on budget breach: fail (typed error) or abstain (keep verdicts decided before the breach)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("xpfilter"))
		return 0
	}
	if *onLimit != "fail" && *onLimit != "abstain" {
		fmt.Fprintln(stderr, "xpfilter: -on-limit must be fail or abstain")
		return 2
	}
	if (*querySrc == "") == (*subsFile == "") {
		fmt.Fprintln(stderr, "xpfilter: exactly one of -q or -subs is required")
		fs.Usage()
		return 2
	}
	if *subsFile != "" && (*analyze || *evaluate) {
		fmt.Fprintln(stderr, "xpfilter: -analyze and -eval apply to a single -q query, not -subs")
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		files = []string{"-"}
	}
	open := func(name string) (io.ReadCloser, error) {
		if name == "-" {
			return io.NopCloser(stdin), nil
		}
		return os.Open(name)
	}

	var q *streamxpath.Query
	if *querySrc != "" {
		var err error
		if q, err = streamxpath.Compile(*querySrc); err != nil {
			fmt.Fprintf(stderr, "xpfilter: %v\n", err)
			return 1
		}
		if *analyze {
			printAnalysis(stdout, q)
			return 0
		}
		if *evaluate {
			return evalFiles(q, files, open, stdout, stderr)
		}
	}

	pool := streamxpath.NewFilterPool(max(*workers, 1))
	add := pool.Add
	if *extract {
		add = pool.AddExtract
	}
	if q != nil {
		if err := add(q.String(), q.String()); err != nil {
			fmt.Fprintf(stderr, "xpfilter: query is not streamable (%v); use -eval\n", errors.Unwrap(err))
			return 1
		}
	} else if err := loadSubscriptions(*subsFile, add); err != nil {
		fmt.Fprintf(stderr, "xpfilter: %v\n", err)
		return 1
	}
	pool.SetChunkSize(*chunk)
	lim := streamxpath.Limits{
		MaxDepth:         *maxDepth,
		MaxTokenBytes:    *maxToken,
		MaxBufferedBytes: *maxBuffer,
		MaxLiveTuples:    *maxTuples,
		MaxDocBytes:      *maxDoc,
	}
	if *onLimit == "abstain" {
		lim.Policy = streamxpath.LimitAbstain
	}
	pool.SetLimits(lim)

	// Each input is matched on its own goroutine into a report of its own;
	// the loop below prints the reports in argument order, and a slot is
	// freed only once its input is printed, so at most N inputs are open or
	// waiting to print at a time.
	type report struct {
		out string
		err error
	}
	n := pool.Len()
	done := make([]chan report, len(files))
	for i := range done {
		done[i] = make(chan report, 1)
	}
	slots := make(chan struct{}, pool.Workers())
	go func() {
		for i, name := range files {
			slots <- struct{}{}
			go func() {
				r, err := open(name)
				if err != nil {
					done[i] <- report{err: err}
					return
				}
				res, err := pool.MatchReaderResult(r)
				r.Close()
				if err != nil {
					done[i] <- report{err: err}
					return
				}
				var b strings.Builder
				if q != nil {
					fmt.Fprintf(&b, "%s: %v\n", name, len(res.MatchedIDs) > 0)
				} else {
					fmt.Fprintf(&b, "%s: %d/%d matched: %s\n", name, len(res.MatchedIDs), n, strings.Join(res.MatchedIDs, " "))
				}
				writeResult(&b, res, *stats)
				done[i] <- report{out: b.String()}
			}()
		}
	}()
	exit := 0
	for i, name := range files {
		r := <-done[i]
		<-slots
		if r.err != nil {
			fmt.Fprintf(stderr, "xpfilter: %s: %v\n", name, r.err)
			exit = 1
			continue
		}
		io.WriteString(stdout, r.out)
	}
	if *stats {
		fmt.Fprintf(stdout, "  %s\n", pool.Stats())
	}
	return exit
}

// writeResult writes the lines under an input's verdict: the early exit,
// the abstention, the fragments and, with stats, the input's own memory
// accounting.
func writeResult(w io.Writer, res streamxpath.MatchResult, stats bool) {
	if rs := res.ReaderStats; rs.EarlyExit {
		// Positive: everything matched; negative: the dead-state analysis
		// proved the remaining queries can never match this document.
		outcome := "positive"
		if rs.DecidedNegative {
			outcome = "negative"
		}
		fmt.Fprintf(w, "  early exit (%s): verdicts decided after %d bytes consumed (%d read)\n",
			outcome, rs.BytesConsumed, rs.BytesRead)
	}
	if res.Abstained {
		fmt.Fprintln(w, "  abstained: resource budget hit; verdicts are those decided before the breach")
	}
	for _, f := range res.Fragments {
		fmt.Fprintf(w, "  fragment %s: %s\n", f.ID, f.Data)
	}
	if stats {
		fmt.Fprintf(w, "  %s\n", res.MemStats)
	}
}

// evalFiles is -eval: each input evaluated in memory, its selected values
// printed under it.
func evalFiles(q *streamxpath.Query, files []string, open func(string) (io.ReadCloser, error), stdout, stderr io.Writer) int {
	exit := 0
	for _, name := range files {
		r, err := open(name)
		var vals []string
		if err == nil {
			vals, err = q.EvaluateReader(r)
			r.Close()
		}
		if err != nil {
			fmt.Fprintf(stderr, "xpfilter: %s: %v\n", name, err)
			exit = 1
			continue
		}
		fmt.Fprintf(stdout, "%s: %d result(s)\n", name, len(vals))
		for _, v := range vals {
			fmt.Fprintf(stdout, "  %s\n", v)
		}
	}
	return exit
}

// loadSubscriptions reads a subscription file, registering each line
// through add (the pool's Add or AddExtract).
func loadSubscriptions(path string, add func(id, query string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lineNo := 0
	bare := map[string]bool{}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var id, query string
		if strings.HasPrefix(line, "/") {
			// Bare query: use the query text as the id. Explicit ids
			// cannot start with "/", so auto ids never collide with them;
			// repeated bare queries get a line-number suffix.
			id, query = line, line
			if bare[id] {
				id = fmt.Sprintf("%s#%d", line, lineNo)
			}
			bare[id] = true
		} else {
			i := strings.IndexAny(line, " \t")
			if i < 0 {
				return fmt.Errorf("%s:%d: want %q or a bare query starting with /", path, lineNo, "id query")
			}
			id, query = line[:i], strings.TrimSpace(line[i:])
		}
		if err := add(id, query); err != nil {
			return fmt.Errorf("%s:%d: %w", path, lineNo, err)
		}
	}
	return sc.Err()
}

func printAnalysis(w io.Writer, q *streamxpath.Query) {
	a := q.Analyze()
	fmt.Fprintf(w, "query:                 %s\n", q)
	fmt.Fprintf(w, "size |Q|:              %d\n", a.Size)
	fmt.Fprintf(w, "frontier size FS(Q):   %d\n", a.FrontierSize)
	fmt.Fprintf(w, "redundancy-free:       %v\n", a.RedundancyFree)
	if len(a.Issues) > 0 {
		fmt.Fprintf(w, "  issues: %s\n", strings.Join(a.Issues, "; "))
	}
	fmt.Fprintf(w, "streamable:            %v\n", a.Streamable)
	if a.StreamableReason != "" {
		fmt.Fprintf(w, "  reason: %s\n", a.StreamableReason)
	}
	fmt.Fprintf(w, "recursive XPath:       %v (Ω(r) bound applies)\n", a.Recursive)
	fmt.Fprintf(w, "depth-sensitive:       %v (Ω(log d) bound applies)\n", a.DepthSensitive)
	fmt.Fprintf(w, "closure-free:          %v\n", a.ClosureFree)
	fmt.Fprintf(w, "path-consistency-free: %v\n", a.PathConsistencyFree)
	for _, r := range a.Redundancies {
		fmt.Fprintf(w, "redundancy:            %s\n", r)
	}
}
