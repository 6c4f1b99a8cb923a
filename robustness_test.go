package streamxpath

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

var errDisk = errors.New("robustness: disk on fire")

// failAfterReader yields its data then fails with errDisk.
type failAfterReader struct {
	data []byte
	pos  int
}

func (r *failAfterReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, errDisk
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

// dataPlusErrReader returns all its data and errDisk from the SAME Read
// call — the io.Reader contract allows it, and the tokenizer must
// process the returned bytes before surfacing the error.
type dataPlusErrReader struct {
	data []byte
	done bool
}

func (r *dataPlusErrReader) Read(p []byte) (int, error) {
	if r.done {
		return 0, errDisk
	}
	n := copy(p, r.data)
	r.done = true
	return n, errDisk
}

// badCountReader violates the io.Reader contract with an impossible
// byte count. The tokenizer must reject it instead of corrupting its
// buffer accounting.
type badCountReader struct{ n int }

func (r *badCountReader) Read(p []byte) (int, error) { return r.n, nil }

func ioErrDoc() string {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&b, "<item><name>n%d</name></item>", i)
	}
	b.WriteString("</catalog>")
	return b.String()
}

// TestReaderErrorPropagation: a mid-stream I/O failure must surface the
// reader's own error (reachable via errors.Is) on every entry point,
// and the object must be reusable for the next document.
func TestReaderErrorPropagation(t *testing.T) {
	doc := ioErrDoc()
	half := []byte(doc[:len(doc)/2])

	check := func(t *testing.T, err error) {
		t.Helper()
		if !errors.Is(err, errDisk) {
			t.Fatalf("MatchReader error = %v, want wrapped errDisk", err)
		}
	}

	t.Run("FilterSet", func(t *testing.T) {
		s := NewFilterSet()
		if err := s.Add("miss", "/catalog/missing"); err != nil {
			t.Fatal(err)
		}
		if err := s.Add("hit", "/catalog/item/name"); err != nil {
			t.Fatal(err)
		}
		s.SetChunkSize(512)
		_, err := s.MatchReader(&failAfterReader{data: half})
		check(t, err)
		ids, err := s.MatchString(doc)
		if err != nil || len(ids) != 1 {
			t.Fatalf("reuse after I/O error: ids=%v err=%v", ids, err)
		}
	})
	t.Run("Filter", func(t *testing.T) {
		f, err := MustCompile("/catalog/missing").NewFilter()
		if err != nil {
			t.Fatal(err)
		}
		f.SetChunkSize(512)
		_, err = f.MatchReader(&failAfterReader{data: half})
		check(t, err)
		ok, err := f.MatchString(doc)
		if err != nil || ok {
			t.Fatalf("reuse after I/O error: ok=%v err=%v", ok, err)
		}
	})
	t.Run("ParallelFilterSet", func(t *testing.T) {
		s := NewParallelFilterSet(2)
		defer s.Close()
		if err := s.Add("miss", "/catalog/missing"); err != nil {
			t.Fatal(err)
		}
		if err := s.Add("hit", "/catalog/item/name"); err != nil {
			t.Fatal(err)
		}
		s.SetChunkSize(512)
		_, err := s.MatchReader(&failAfterReader{data: half})
		check(t, err)
		ids, err := s.MatchString(doc)
		if err != nil || len(ids) != 1 {
			t.Fatalf("reuse after I/O error: ids=%v err=%v", ids, err)
		}
	})
	t.Run("FilterPool", func(t *testing.T) {
		p := NewFilterPool(2)
		if err := p.Add("miss", "/catalog/missing"); err != nil {
			t.Fatal(err)
		}
		if err := p.Add("hit", "/catalog/item/name"); err != nil {
			t.Fatal(err)
		}
		p.SetChunkSize(512)
		_, err := p.MatchReader(&failAfterReader{data: half})
		check(t, err)
		ids, err := p.MatchString(doc)
		if err != nil || len(ids) != 1 {
			t.Fatalf("reuse after I/O error: ids=%v err=%v", ids, err)
		}
	})
	t.Run("AdaptiveFilterSet", func(t *testing.T) {
		s := NewAdaptiveFilterSet(2)
		defer s.Close()
		if err := s.Add("miss", "/catalog/missing"); err != nil {
			t.Fatal(err)
		}
		if err := s.Add("hit", "/catalog/item/name"); err != nil {
			t.Fatal(err)
		}
		s.SetChunkSize(512)
		_, err := s.MatchReader(&failAfterReader{data: half})
		check(t, err)
		ids, err := s.MatchString(doc)
		if err != nil || len(ids) != 1 {
			t.Fatalf("reuse after I/O error: ids=%v err=%v", ids, err)
		}
	})
	t.Run("DataPlusErrSameRead", func(t *testing.T) {
		s := NewFilterSet()
		if err := s.Add("a", "/catalog/missing"); err != nil {
			t.Fatal(err)
		}
		s.SetChunkSize(1 << 20)
		_, err := s.MatchReader(&dataPlusErrReader{data: half})
		check(t, err)
	})
	t.Run("InvalidReadCount", func(t *testing.T) {
		s := NewFilterSet()
		if err := s.Add("a", "/catalog/missing"); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{-1, 1 << 30} {
			if _, err := s.MatchReader(&badCountReader{n: n}); err == nil {
				t.Fatalf("reader returning count %d: want error, got nil", n)
			}
		}
	})
}

// TestCloseDuringMatchRace: the deprecated Close racing concurrent Match
// calls (and a second Close) must neither deadlock nor trip the race
// detector, and must leave every call a clean verdict.
func TestCloseDuringMatchRace(t *testing.T) {
	doc := []byte(ioErrDoc())
	for iter := 0; iter < 50; iter++ {
		s := NewParallelFilterSet(4)
		if err := s.Add("a", "//item/name"); err != nil {
			t.Fatal(err)
		}
		if err := s.Add("b", "/catalog/item"); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 3; j++ {
					if ids, err := s.MatchBytes(doc); err != nil || len(ids) != 2 {
						t.Errorf("match racing Close: ids=%v err=%v", ids, err)
						return
					}
				}
			}()
		}
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() { defer wg.Done(); s.Close() }()
		}
		wg.Wait()
	}
}
