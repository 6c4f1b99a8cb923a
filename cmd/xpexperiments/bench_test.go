// The reproduction's benchmarks: one per experiment the command prints
// (E3–E21, each headed by the theorem it reproduces), plus the Section 8
// filter's snapshot and buffering ablation. Each reports, besides ns/op,
// the custom metrics the paper's tables are stated in (bits of memory,
// automaton states), via b.ReportMetric. Run with
//
//	go test -run '^$' -bench . ./cmd/xpexperiments
//
// and compare the shapes against the tables of `go run ./cmd/xpexperiments`,
// which hold the paper's claim to each measurement.
package main

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"streamxpath"
	"streamxpath/internal/automaton"
	"streamxpath/internal/commcc"
	"streamxpath/internal/core"
	"streamxpath/internal/fragment"
	"streamxpath/internal/naive"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/workload"
)

// BenchmarkFrontierLowerBound (E3): generate and verify the Theorem 4.2
// fooling set for the paper's running query.
func BenchmarkFrontierLowerBound(b *testing.B) {
	q := query.MustParse("/a[c[.//e and f] and b > 5]")
	var rep *commcc.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = commcc.VerifyFrontier(q, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Parameter), "FS(Q)")
	b.ReportMetric(float64(rep.DistinctStates), "states")
	b.ReportMetric(float64(rep.MaxMessageBits), "stateBits")
}

// BenchmarkGeneralFrontierBound (E9): the Theorem 7.1 construction across
// frontier sizes.
func BenchmarkGeneralFrontierBound(b *testing.B) {
	for _, src := range []string{
		"/a[b and c]",
		"/a[b[x and y] and c]",
		"/a[b > 5 and c < 3 and e and f]",
	} {
		q := query.MustParse(src)
		b.Run(fmt.Sprintf("FS=%d", fragment.FrontierSize(q)), func(b *testing.B) {
			var rep *commcc.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = commcc.VerifyFrontier(q, 64)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.DistinctStates), "states")
			b.ReportMetric(float64(rep.MaxMessageBits), "stateBits")
		})
	}
}

// BenchmarkRecursionLowerBound (E4): the DISJ reduction of Theorem 4.5,
// sweeping the recursion budget r. The stateBits metric must grow linearly
// in r (the Ω(r) bound).
func BenchmarkRecursionLowerBound(b *testing.B) {
	q := query.MustParse("//a[b and c]")
	for _, r := range []int{2, 4, 8, 12} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			var rep *commcc.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = commcc.VerifyRecursion(q, r, 64)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.MaxMessageBits), "stateBits")
			b.ReportMetric(float64(rep.MaxMessageBits)/float64(r), "stateBits/r")
		})
	}
}

// BenchmarkDepthLowerBound (E5): the depth family of Theorem 4.6, sweeping
// d. The stateBits metric must grow like log d, not d.
func BenchmarkDepthLowerBound(b *testing.B) {
	q := query.MustParse("/a/b")
	for _, d := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			var rep *commcc.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = commcc.VerifyDepth(q, d, 6)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.MaxMessageBits), "stateBits")
		})
	}
}

// BenchmarkSpaceVsRecursion (E14): filter memory on fully recursive
// documents; bits must scale linearly with r (Theorem 8.8's |Q|·r term).
func BenchmarkSpaceVsRecursion(b *testing.B) {
	q := query.MustParse("//a[b and c]")
	for _, r := range []int{4, 16, 64, 256} {
		events := workload.FullyRecursive(r).Events()
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			f := core.MustCompile(q)
			var bits int
			for i := 0; i < b.N; i++ {
				f.Reset()
				if _, err := f.ProcessAll(events); err != nil {
					b.Fatal(err)
				}
				bits = f.Stats().EstimatedBits(q.Size())
			}
			b.ReportMetric(float64(bits), "estBits")
			b.ReportMetric(float64(bits)/float64(r), "estBits/r")
		})
	}
}

// BenchmarkSpaceVsFrontier (E15): filter memory versus FS(Q) on matching
// wide documents; bits must scale linearly with FS (Theorem 8.8's
// pc-free/closure-free regime).
func BenchmarkSpaceVsFrontier(b *testing.B) {
	for _, fs := range []int{2, 8, 32, 128} {
		q := workload.FrontierQuery(fs)
		events := workload.FrontierDoc(fs).Events()
		b.Run(fmt.Sprintf("FS=%d", fs), func(b *testing.B) {
			f := core.MustCompile(q)
			var bits int
			for i := 0; i < b.N; i++ {
				f.Reset()
				if _, err := f.ProcessAll(events); err != nil {
					b.Fatal(err)
				}
				bits = f.Stats().EstimatedBits(q.Size())
			}
			b.ReportMetric(float64(bits), "estBits")
			b.ReportMetric(float64(bits)/float64(fs), "estBits/FS")
		})
	}
}

// BenchmarkSpaceVsDepth (E16): filter memory on deep documents; bits must
// scale logarithmically with d.
func BenchmarkSpaceVsDepth(b *testing.B) {
	q := query.MustParse("/a//b")
	for _, d := range []int{16, 128, 1024, 8192} {
		events := workload.Deep(d).Events()
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			f := core.MustCompile(q)
			var bits int
			for i := 0; i < b.N; i++ {
				f.Reset()
				if _, err := f.ProcessAll(events); err != nil {
					b.Fatal(err)
				}
				bits = f.Stats().EstimatedBits(q.Size())
			}
			b.ReportMetric(float64(bits), "estBits")
		})
	}
}

// BenchmarkDFABlowupVsFilter (E18): eager-DFA state count versus the
// filter's live tuples on the //a/*^k/b family. The DFA metric grows
// exponentially in k; the filter metric stays polynomial.
func BenchmarkDFABlowupVsFilter(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	for _, k := range []int{4, 8, 12} {
		q := workload.StarChainQuery(k)
		doc := workload.RandomTree(rng, []string{"a", "b", "x", "y"}, nil, k+4, 3).Events()
		b.Run(fmt.Sprintf("k=%d/eagerDFA", k), func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				nfa, err := automaton.FromQuery(q)
				if err != nil {
					b.Fatal(err)
				}
				states, _ = automaton.EagerStateCount(nfa, 1_000_000)
			}
			b.ReportMetric(float64(states), "states")
		})
		b.Run(fmt.Sprintf("k=%d/filter", k), func(b *testing.B) {
			f := core.MustCompile(q)
			var tuples int
			for i := 0; i < b.N; i++ {
				f.Reset()
				if _, err := f.ProcessAll(doc); err != nil {
					b.Fatal(err)
				}
				tuples = f.Stats().PeakTuples
			}
			b.ReportMetric(float64(tuples), "tuples")
		})
	}
}

// BenchmarkLazyDFAVsFilterThroughput (E18b): time comparison of the lazy
// DFA and the filter on the same linear query, showing the filter's
// space savings do not cost significant time.
func BenchmarkLazyDFAVsFilterThroughput(b *testing.B) {
	q := query.MustParse("/a//b")
	events := workload.Deep(64).Events()
	b.Run("lazyDFA", func(b *testing.B) {
		nfa, err := automaton.FromQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		d := automaton.NewLazyDFA(nfa)
		for i := 0; i < b.N; i++ {
			d.Reset()
			if _, err := d.ProcessAll(events); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("filter", func(b *testing.B) {
		f := core.MustCompile(q)
		for i := 0; i < b.N; i++ {
			f.Reset()
			if _, err := f.ProcessAll(events); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFilterVsNaive (E20): memory of the streaming filter versus the
// buffer-everything baseline on a growing corpus.
func BenchmarkFilterVsNaive(b *testing.B) {
	q := query.MustParse(`//item[keyword = "go" and priority > 5]`)
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{100, 1000} {
		events := workload.RandomNewsFeed(rng, n).Events()
		b.Run(fmt.Sprintf("items=%d/naive", n), func(b *testing.B) {
			e := naive.New(q)
			var bytes int
			for i := 0; i < b.N; i++ {
				e.Reset()
				if _, err := e.ProcessAll(events); err != nil {
					b.Fatal(err)
				}
				bytes = e.BufferedBytes()
			}
			b.ReportMetric(float64(bytes), "memBytes")
		})
		b.Run(fmt.Sprintf("items=%d/filter", n), func(b *testing.B) {
			f := core.MustCompile(q)
			var bytes int
			for i := 0; i < b.N; i++ {
				f.Reset()
				if _, err := f.ProcessAll(events); err != nil {
					b.Fatal(err)
				}
				bytes = (f.Stats().EstimatedBits(q.Size()) + 7) / 8
			}
			b.ReportMetric(float64(bytes), "memBytes")
		})
	}
}

// BenchmarkReductionProtocol (E19): cost of one Lemma 3.7 cut (snapshot +
// restore) relative to plain streaming.
func BenchmarkReductionProtocol(b *testing.B) {
	q := query.MustParse("/a[c[.//e and f] and b > 5]")
	events := sax.MustParse("<a><c><x><e/></x><f/></c><b>6</b></a>")
	half := len(events) / 2
	b.Run("uncut", func(b *testing.B) {
		f := core.MustCompile(q)
		for i := 0; i < b.N; i++ {
			f.Reset()
			if _, err := f.ProcessAll(events); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one-cut", func(b *testing.B) {
		var bits int
		for i := 0; i < b.N; i++ {
			run, err := commcc.RunProtocol(q, [][]sax.Event{events[:half], events[half:]})
			if err != nil {
				b.Fatal(err)
			}
			bits = run.MaxMessageBits()
		}
		b.ReportMetric(float64(bits), "stateBits")
	})
}

// BenchmarkSnapshot: cost and size of state serialization mid-stream.
func BenchmarkSnapshot(b *testing.B) {
	q := query.MustParse("//a[b and c]")
	events := workload.FullyRecursive(32).Events()
	f := core.MustCompile(q)
	for _, e := range events[:len(events)/2] {
		if err := f.Process(e); err != nil {
			b.Fatal(err)
		}
	}
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		size = len(f.Snapshot())
	}
	b.ReportMetric(float64(size*8), "stateBits")
}

// BenchmarkAblationBufferAll ablates the unrestricted-leaf optimization of
// internal/core: with BufferAllLeaves the filter buffers every leaf
// candidate's text as in the paper's literal pseudo-code. Results are
// identical; the buffer metric shows what the optimization saves on
// text-heavy documents.
func BenchmarkAblationBufferAll(b *testing.B) {
	q := query.MustParse("//item[title and .//p]") // unrestricted leaves
	rng := rand.New(rand.NewSource(21))
	events := workload.RandomNewsFeed(rng, 200).Events()
	for _, opt := range []struct {
		name string
		o    core.Options
	}{
		{"optimized", core.Options{}},
		{"buffer-all", core.Options{BufferAllLeaves: true}},
	} {
		b.Run(opt.name, func(b *testing.B) {
			f, err := core.CompileOpts(q, opt.o)
			if err != nil {
				b.Fatal(err)
			}
			var buf int
			for i := 0; i < b.N; i++ {
				f.Reset()
				if _, err := f.ProcessAll(events); err != nil {
					b.Fatal(err)
				}
				buf = f.Stats().PeakBufferBytes
			}
			b.ReportMetric(float64(buf), "bufferBytes")
		})
	}
}

// BenchmarkStreamEvalBuffering (E21): full-evaluation buffering versus
// evidence delay — the follow-up work's inherent-buffering phenomenon.
func BenchmarkStreamEvalBuffering(b *testing.B) {
	q := streamxpath.MustCompile("/a[c]/b")
	for _, n := range []int{10, 100, 1000} {
		var sb strings.Builder
		sb.WriteString("<a>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "<b>v%d</b>", i)
		}
		sb.WriteString("<c/></a>")
		doc := sb.String()
		b.Run(fmt.Sprintf("delay=%d", n), func(b *testing.B) {
			se, err := q.NewStreamEvaluator()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := se.EvaluateString(doc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(se.Stats().PeakPendingValues), "pendingValues")
		})
	}
}
