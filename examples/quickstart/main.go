// Quickstart: compile a Forward XPath query, filter documents in one
// streaming pass, and inspect the query's theoretical properties.
package main

import (
	"fmt"
	"log"

	"streamxpath"
)

func main() {
	// The running example of the paper (Fig. 2, minus the output step).
	q, err := streamxpath.Compile("/a[c[.//e and f] and b > 5]")
	if err != nil {
		log.Fatal(err)
	}

	f, err := q.NewFilter()
	if err != nil {
		log.Fatal(err)
	}

	docs := []string{
		"<a><c><e/><f/></c><b>6</b></a>",         // matches
		"<a><c><x><e/></x><f/></c><b>99</b></a>", // matches (e via descendant)
		"<a><c><f/></c><b>6</b></a>",             // no e
		"<a><c><e/><f/></c><b>5</b></a>",         // b not > 5
	}
	for _, d := range docs {
		matched, err := f.MatchString(d)
		if err != nil {
			log.Fatal(err)
		}
		// A Filter is a one-subscription engine, and Stats is the engine's
		// accounting: "live" counts frontier tuples + open candidate scopes
		// + buffering leaf candidates at their joint peak, so the first
		// document reads 5 live / 45 bits, what the Section 8 filter alone
		// (internal/core) holds too. For the paper's Fig. 22 frontier, event
		// by event, see examples/tracer.
		s := f.Stats()
		fmt.Printf("%-45s -> %-5v (live %d, %d bits, %.1fx the %d-bit lower bound)\n",
			d, matched, s.PeakLiveTuples, s.EstimatedBits, s.OptimalityRatio, s.LowerBoundBits)
	}

	// Full evaluation (non-streaming) returns selected values.
	q2 := streamxpath.MustCompile("/a[c[.//e and f] and b > 5]/b")
	vals, err := q2.Evaluate("<a><c><e/><f/></c><b>6</b></a>")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFULLEVAL(%s) = %v\n", q2, vals)

	// Query analysis: the paper's quantities.
	a := q.Analyze()
	fmt.Printf("\nanalysis: |Q|=%d FS(Q)=%d redundancy-free=%v streamable=%v\n",
		a.Size, a.FrontierSize, a.RedundancyFree, a.Streamable)
	fmt.Println("=> any streaming algorithm needs at least FS(Q) bits on some document (Theorem 7.1)")
}
