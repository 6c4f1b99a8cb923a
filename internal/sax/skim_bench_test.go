package sax_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"streamxpath/internal/sax"
	"streamxpath/internal/workload"
)

// newsFeed is a 2,000-item news feed; entity-dense, every body carries
// &amp;, &lt; and &gt; several times over.
func newsFeed(b *testing.B, entity bool) []byte {
	rng := rand.New(rand.NewSource(1))
	keywords := []string{"go", "xml", "streams", "databases", "theory", "systems"}
	items := make([]workload.NewsItem, 2000)
	for i := range items {
		body := "lorem ipsum "
		if entity {
			body = "lorem & ipsum <dolor> "
		}
		items[i] = workload.NewsItem{
			Title:    fmt.Sprintf("story %d", i),
			Keyword:  keywords[rng.Intn(len(keywords))],
			Priority: rng.Intn(10),
			Body:     strings.Repeat(body, 1+rng.Intn(5)),
		}
	}
	x, err := workload.NewsFeed(items).XML()
	if err != nil {
		b.Fatal(err)
	}
	if entity && !strings.Contains(x, "&lt;dolor&gt;") {
		b.Fatal("the entity-dense feed carries no references")
	}
	return []byte(x)
}

// BenchmarkSkimNews skims a whole news feed from its first byte: the end tag
// of the innermost element and the predefined references are what the skim
// kernel meets most. Run it at -cpu 1, where no helper takes a piece.
func BenchmarkSkimNews(b *testing.B) {
	for _, c := range []struct {
		name   string
		entity bool
	}{{"plain", false}, {"entity", true}} {
		b.Run(c.name, func(b *testing.B) {
			doc := newsFeed(b, c.entity)
			tok := sax.NewTokenizerBytes(doc, nil)
			b.SetBytes(int64(len(doc)))
			b.ResetTimer()
			for range b.N {
				tok.Reset(doc)
				if _, err := tok.Skim(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
