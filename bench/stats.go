package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number. N is the sample count behind a timing
// (rounds for a median over rounds, operations for a pooled percentile).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a / b, and 0 where there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

// sortedPercentile is percentile for a slice already in ascending order.
func sortedPercentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(s))+0.999999) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// procStatusKB reads one "<key>:  <n> kB" field of /proc/self/status; 0
// where the file or the field is missing.
func procStatusKB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				n, _ := strconv.ParseFloat(fields[0], 64)
				return n
			}
		}
	}
	return 0
}

// rssPeak tracks the largest resident set seen over the measured phase. The
// process's own high-water mark (VmHWM) would include the reference
// evaluator's document trees, which are the harness's and are freed before
// measuring; sampling VmRSS at every round end leaves them out.
type rssPeak struct{ kb float64 }

func (p *rssPeak) sample() {
	if kb := procStatusKB("VmRSS"); kb > p.kb {
		p.kb = kb
	}
}

func (p *rssPeak) mb() float64 { return p.kb / 1024 }

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
