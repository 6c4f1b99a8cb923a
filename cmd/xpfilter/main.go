// Command xpfilter filters XML documents against Forward XPath queries in
// a single streaming pass, printing one line per input with the match
// result and (with -stats) the filter's memory statistics.
//
// Usage:
//
//	xpfilter -q '/news/item[priority > 5]' file1.xml file2.xml
//	cat doc.xml | xpfilter -q '//a[b and c]'
//	xpfilter -q '/a/b' -analyze
//	xpfilter -subs subscriptions.txt feed1.xml feed2.xml
//	xpfilter -subs subscriptions.txt -bench 1000 feed.xml
//	xpfilter -subs subscriptions.txt -workers 4 feed*.xml
//
// Inputs — stdin and files alike — stream through the chunked
// interned-symbol byte path (MatchReader): the document is read in
// -chunk sized windows, tokenized by the resumable tokenizer, and
// matched as it arrives, so memory stays bounded by the chunk size plus
// the open-element depth regardless of document size; the moment every
// verdict is decided the reader stops and the bytes consumed are
// reported. With -subs, the file names one standing subscription per
// line (either "id <tab-or-space> query" or a bare query, identified by
// its own text), all compiled into one shared dissemination engine; each
// input document is matched against every subscription in a single pass
// and the matching ids are printed. -extract additionally captures each
// matched subscription's subtree (the document-order-first match) and
// prints it under the verdict line. -stats then reports the engine's
// shared-structure sizes. -bench N reads the document into memory and
// re-matches it N times, reporting events/sec and allocs/event of the
// warm fast path; with -subs, -stats then prints the engine's statistics
// for the last of those matches, whose pieces= counts the pieces of the
// skimmed remainder helper goroutines validated on the other cores.
//
// -workers N matches on a FilterPool, N engines sharing one subscription
// index, instead of the sequential FilterSet: the inputs stream as above,
// N at a time — parallelism across documents, for feed workloads,
// identical results. -workers 0 (the default) keeps the sequential
// FilterSet, the one -bench measures.
//
// Resource limits: -max-depth, -max-token, -max-buffer, -max-tuples and
// -max-doc set hard per-document budgets on open-element depth, single
// token size, buffered predicate text, live frontier state and total
// document bytes (0 = unlimited). A breached budget fails the document
// with a typed error by default; -on-limit abstain degrades gracefully
// instead, returning the verdicts decided before the breach (matching
// is monotone, so they are final) and tagging the output line. -stats
// additionally prints the live-memory accounting, including the
// optimality ratio of estimated bits against the paper's lower bound.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"streamxpath"
	"streamxpath/internal/buildinfo"
	"streamxpath/internal/sax"
)

func main() {
	var (
		version  = flag.Bool("version", false, "print version and exit")
		querySrc = flag.String("q", "", "Forward XPath query")
		subsFile = flag.String("subs", "", "file of standing subscriptions (one per line); match all in one pass")
		stats    = flag.Bool("stats", false, "print per-document memory statistics")
		analyze  = flag.Bool("analyze", false, "print query analysis and exit")
		evaluate = flag.Bool("eval", false, "print selected node values instead of a boolean (in-memory evaluation)")
		bench    = flag.Int("bench", 0, "re-match each file N times; print events/sec and allocs/event")
		extract  = flag.Bool("extract", false, "with -subs: capture and print each matched subscription's subtree")
		workers  = flag.Int("workers", 0, "match the inputs concurrently on a pool of N engine replicas (0 = sequential)")
		chunk    = flag.Int("chunk", 0, "largest streaming read in bytes (0 = 64KiB default); reads start at 4KiB and grow to it as documents fill them")

		maxDepth  = flag.Int("max-depth", 0, "max open-element depth per document (0 = unlimited)")
		maxToken  = flag.Int("max-token", 0, "max bytes of a single token (0 = unlimited)")
		maxBuffer = flag.Int("max-buffer", 0, "max bytes of buffered predicate text (0 = unlimited)")
		maxTuples = flag.Int("max-tuples", 0, "max live frontier tuples/scopes/pendings (0 = unlimited)")
		maxDoc    = flag.Int64("max-doc", 0, "max total document bytes (0 = unlimited)")
		onLimit   = flag.String("on-limit", "fail", "on budget breach: fail (typed error) or abstain (keep verdicts decided before the breach)")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("xpfilter"))
		return
	}
	if *onLimit != "fail" && *onLimit != "abstain" {
		fmt.Fprintln(os.Stderr, "xpfilter: -on-limit must be fail or abstain")
		os.Exit(2)
	}
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
	if (*querySrc == "") == (*subsFile == "") {
		fmt.Fprintln(os.Stderr, "xpfilter: exactly one of -q or -subs is required")
		flag.Usage()
		os.Exit(2)
	}
	if *subsFile != "" && (*analyze || *evaluate) {
		fmt.Fprintln(os.Stderr, "xpfilter: -analyze and -eval apply to a single -q query, not -subs")
		os.Exit(2)
	}
	if *workers > 0 && *subsFile == "" {
		fmt.Fprintln(os.Stderr, "xpfilter: -workers applies to -subs matching")
		os.Exit(2)
	}
	if *bench > 0 && *workers > 0 {
		fmt.Fprintln(os.Stderr, "xpfilter: -bench applies to sequential matching (-workers 0)")
		os.Exit(2)
	}
	files := flag.Args()
	if len(files) == 0 {
		files = []string{"-"}
	}
	if *subsFile != "" {
		if *workers > 0 {
			os.Exit(runPoolFiles(*subsFile, files, *workers, *chunk, *stats, *extract, lim))
		}
		set := streamxpath.NewFilterSet()
		add := set.Add
		if *extract {
			add = set.AddExtract
		}
		if err := loadSubscriptions(*subsFile, add); err != nil {
			fatal(err)
		}
		set.SetChunkSize(*chunk)
		set.SetLimits(lim)
		exit := 0
		for _, name := range files {
			if err := runSet(set, name, *stats, *bench); err != nil {
				fmt.Fprintf(os.Stderr, "xpfilter: %s: %v\n", name, err)
				exit = 1
			}
		}
		os.Exit(exit)
	}
	q, err := streamxpath.Compile(*querySrc)
	if err != nil {
		fatal(err)
	}
	if *analyze {
		printAnalysis(q)
		return
	}
	exit := 0
	for _, name := range files {
		if err := runOne(q, name, *stats, *evaluate, *bench, *chunk, lim); err != nil {
			fmt.Fprintf(os.Stderr, "xpfilter: %s: %v\n", name, err)
			exit = 1
		}
	}
	os.Exit(exit)
}

// readInput loads a file argument into memory for -bench's byte fast
// path; "-" returns nil, which the callers refuse.
func readInput(name string) ([]byte, error) {
	if name == "-" {
		return nil, nil
	}
	return os.ReadFile(name)
}

// openInput opens a file argument (or stdin for "-") for the chunked
// streaming path. The returned close func is a no-op for stdin.
func openInput(name string) (io.Reader, func(), error) {
	if name == "-" {
		return os.Stdin, func() {}, nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// reportEarlyExit prints the bytes-consumed line when a streaming match
// stopped before end of input, tagging the decision direction: positive
// (everything matched) or negative (the dead-state analysis proved the
// remaining subscriptions can never match this document).
func reportEarlyExit(rs streamxpath.ReaderStats) {
	if rs.EarlyExit {
		outcome := "positive"
		if rs.DecidedNegative {
			outcome = "negative"
		}
		fmt.Printf("  early exit (%s): verdicts decided after %d bytes consumed (%d read)\n",
			outcome, rs.BytesConsumed, rs.BytesRead)
	}
}

// reportSetResult prints one streamed document's verdicts against a set
// of n subscriptions, on the sequential set and on the pool alike.
func reportSetResult(name string, n int, res streamxpath.MatchResult) {
	fmt.Printf("%s: %d/%d matched: %s\n", name, len(res.MatchedIDs), n, strings.Join(res.MatchedIDs, " "))
	reportEarlyExit(res.ReaderStats)
	reportAbstain(res.Abstained)
	reportFragments(res.Fragments)
}

// reportSkim prints how much of a whole-buffer document was validated
// without being dispatched, every verdict being final already — the
// buffered counterpart of the reader path's early exit.
func reportSkim(skimmed int64, docLen int) {
	if skimmed > 0 {
		fmt.Printf("  skimmed: verdicts final after %d of %d bytes; %d validated without dispatch\n",
			int64(docLen)-skimmed, docLen, skimmed)
	}
}

// benchReport re-runs a warm match loop and prints events/sec and
// allocs/event, the two numbers the interned-symbol pipeline is tuned
// for.
func benchReport(doc []byte, iters int, run func() error) error {
	events, err := sax.ParseBytes(doc)
	if err != nil {
		return err
	}
	if err := run(); err != nil { // warm symbols, DFA rows, scratch
		return err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := run(); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	total := float64(len(events)) * float64(iters)
	fmt.Printf("  bench: %d iters x %d events: %.2fM events/sec, %.4f allocs/event, %.1f ns/event\n",
		iters, len(events), total/elapsed.Seconds()/1e6,
		float64(m1.Mallocs-m0.Mallocs)/total, float64(elapsed.Nanoseconds())/total)
	// Tokenizer-only pass: how fast the byte tokenizer turns bytes into
	// events before any matching work — a batch at a time, as the matchers
	// take them — so field measurements of raw tokenization throughput
	// don't need the Go bench harness.
	tok := sax.NewTokenizerBytes(doc, nil)
	batch := make([]sax.ByteEvent, sax.BatchSize)
	drain := func() error {
		tok.Reset(doc)
		for {
			if _, err := tok.NextBatch(batch); err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
	}
	if err := drain(); err != nil { // warm symbols and scratch
		return err
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := drain(); err != nil {
			return err
		}
	}
	tokElapsed := time.Since(start)
	bytesTotal := float64(len(doc)) * float64(iters)
	fmt.Printf("  tokenizer: %.1f MB/s (%d iters x %d bytes, %.1f ns/event)\n",
		bytesTotal/tokElapsed.Seconds()/1e6,
		iters, len(doc), float64(tokElapsed.Nanoseconds())/total)
	return nil
}

// reportFragments prints each extracted fragment under its match line.
func reportFragments(frags []streamxpath.Fragment) {
	for _, f := range frags {
		fmt.Printf("  fragment %s: %s\n", f.ID, f.Data)
	}
}

// reportAbstain tags an output line's verdicts as partial when the last
// match degraded on a budget breach.
func reportAbstain(abstained bool) {
	if abstained {
		fmt.Printf("  abstained: resource budget hit; verdicts are those decided before the breach\n")
	}
}

// loadSubscriptions reads a subscription file, registering each line
// through add (a FilterSet or FilterPool Add/AddExtract method).
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

// runPoolFiles is -workers N: a FilterPool of N engines over one index
// streaming the inputs concurrently. Results print in argument order.
func runPoolFiles(subsFile string, files []string, workers, chunk int, stats, extract bool, lim streamxpath.Limits) int {
	pool := streamxpath.NewFilterPool(workers)
	add := pool.Add
	if extract {
		add = pool.AddExtract
	}
	if err := loadSubscriptions(subsFile, add); err != nil {
		fatal(err)
	}
	pool.SetChunkSize(chunk)
	pool.SetLimits(lim)
	type result struct {
		res streamxpath.MatchResult
		err error
	}
	results := make([]result, len(files))
	var wg sync.WaitGroup
	// Admit at most workers inputs at a time, so open files and goroutines
	// are bounded by the concurrency level rather than the argument count.
	sem := make(chan struct{}, workers)
	for i, name := range files {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, name string) {
			defer func() { <-sem; wg.Done() }()
			r, closeIn, err := openInput(name)
			if err != nil {
				results[i] = result{err: err}
				return
			}
			defer closeIn()
			res, err := pool.MatchReaderResult(r)
			results[i] = result{res: res, err: err}
		}(i, name)
	}
	wg.Wait()
	exit := 0
	var mem streamxpath.MemStats
	for i, name := range files {
		if results[i].err != nil {
			fmt.Fprintf(os.Stderr, "xpfilter: %s: %v\n", name, results[i].err)
			exit = 1
			continue
		}
		res := results[i].res
		reportSetResult(name, pool.Len(), res)
		if res.MemStats.Events > mem.Events {
			mem = res.MemStats
		}
	}
	if stats {
		fmt.Printf("  %s\n", pool.Stats())
		fmt.Printf("  %s\n", mem)
	}
	return exit
}

// runSet matches one document against every subscription through the
// chunked streaming path (bounded memory, mid-stream early exit); with
// -bench the document is loaded once and re-matched on the in-memory
// fast path, where the boolean MatchBytes is the warm loop: it measures
// the zero-alloc path.
func runSet(set *streamxpath.FilterSet, name string, stats bool, bench int) error {
	if bench > 0 {
		doc, err := readInput(name)
		if err != nil {
			return err
		}
		if doc == nil {
			return fmt.Errorf("-bench needs a file argument, not stdin")
		}
		res, err := set.MatchBytesResult(doc)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d/%d matched: %s\n", name, len(res.MatchedIDs), set.Len(), strings.Join(res.MatchedIDs, " "))
		reportSkim(res.SkimmedBytes, len(doc))
		reportAbstain(res.Abstained)
		reportFragments(res.Fragments)
		if err := benchReport(doc, bench, func() error {
			_, err := set.MatchBytes(doc)
			return err
		}); err != nil || !stats {
			return err
		}
		fmt.Printf("  %s\n", set.Stats())
		return nil
	}
	r, closeIn, err := openInput(name)
	if err != nil {
		return err
	}
	defer closeIn()
	res, err := set.MatchReaderResult(r)
	if err != nil {
		return err
	}
	reportSetResult(name, set.Len(), res)
	if stats {
		s := set.Stats()
		fmt.Printf("  %s\n", s)
		fmt.Printf("  %s\n", res.MemStats)
	}
	return nil
}

func runOne(q *streamxpath.Query, name string, stats, evaluate bool, bench, chunk int, lim streamxpath.Limits) error {
	if evaluate {
		var vals []string
		r, closeIn, err := openInput(name)
		if err != nil {
			return err
		}
		vals, err = q.EvaluateReader(r)
		closeIn()
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d result(s)\n", name, len(vals))
		for _, v := range vals {
			fmt.Printf("  %s\n", v)
		}
		return nil
	}
	f, err := q.NewFilter()
	if err != nil {
		return fmt.Errorf("query is not streamable (%v); use -eval", err)
	}
	f.SetChunkSize(chunk)
	f.SetLimits(lim)
	if bench > 0 {
		doc, err := readInput(name)
		if err != nil {
			return err
		}
		if doc == nil {
			return fmt.Errorf("-bench needs a file argument, not stdin")
		}
		res, err := f.MatchBytesResult(doc)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %v\n", name, len(res.MatchedIDs) > 0)
		reportSkim(res.SkimmedBytes, len(doc))
		reportAbstain(res.Abstained)
		return benchReport(doc, bench, func() error {
			_, err := f.MatchBytes(doc)
			return err
		})
	}
	r, closeIn, err := openInput(name)
	if err != nil {
		return err
	}
	defer closeIn()
	res, err := f.MatchReaderResult(r)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %v\n", name, len(res.MatchedIDs) > 0)
	reportEarlyExit(res.ReaderStats)
	reportAbstain(res.Abstained)
	if stats {
		s := f.Stats()
		fmt.Printf("  events=%d live=%d buffer=%dB depth=%d estBits=%d lowerBoundBits=%d optimality=%.2f\n",
			s.Events, s.PeakLiveTuples, s.PeakBufferedBytes, s.MaxDepth, s.EstimatedBits,
			s.LowerBoundBits, s.OptimalityRatio)
	}
	return nil
}

func printAnalysis(q *streamxpath.Query) {
	a := q.Analyze()
	fmt.Printf("query:                 %s\n", q)
	fmt.Printf("size |Q|:              %d\n", a.Size)
	fmt.Printf("frontier size FS(Q):   %d\n", a.FrontierSize)
	fmt.Printf("redundancy-free:       %v\n", a.RedundancyFree)
	if len(a.Issues) > 0 {
		fmt.Printf("  issues: %s\n", strings.Join(a.Issues, "; "))
	}
	fmt.Printf("streamable:            %v\n", a.Streamable)
	if a.StreamableReason != "" {
		fmt.Printf("  reason: %s\n", a.StreamableReason)
	}
	fmt.Printf("recursive XPath:       %v (Ω(r) bound applies)\n", a.Recursive)
	fmt.Printf("depth-sensitive:       %v (Ω(log d) bound applies)\n", a.DepthSensitive)
	fmt.Printf("closure-free:          %v\n", a.ClosureFree)
	fmt.Printf("path-consistency-free: %v\n", a.PathConsistencyFree)
	for _, r := range a.Redundancies {
		fmt.Printf("redundancy:            %s\n", r)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "xpfilter: %v\n", err)
	os.Exit(1)
}
