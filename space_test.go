package streamxpath

import (
	"strings"
	"testing"
)

// TestMatchRefusesNonXMLSpaceOutsideRoot: a document with anything but XML
// white space before or after its root — a reference to a space, or a
// space that is not XML's — is malformed, buffered or streamed, whether its
// verdicts were decided before the root closed or not.
func TestMatchRefusesNonXMLSpaceOutsideRoot(t *testing.T) {
	set := NewFilterSet()
	for id, q := range map[string]string{"decided": "/a", "open": "/a/b"} {
		if err := set.Add(id, q); err != nil {
			t.Fatal(err)
		}
	}
	for _, doc := range []string{"<a/>&#32;", "<a/>&#xA0;", "&#32;<a/>", "\u00a0<a/>", "<a/>\u00a0", "<a></a>\v"} {
		if ids, err := set.MatchBytes([]byte(doc)); err == nil {
			t.Errorf("MatchBytes(%q) = %v, accepted", doc, ids)
		}
		if ids, err := set.MatchReader(strings.NewReader(doc)); err == nil {
			t.Errorf("MatchReader(%q) = %v, accepted", doc, ids)
		}
	}
	doc := " \t\r\n<a/>\r\n\t "
	for name, match := range map[string]func() ([]string, error){
		"MatchBytes":  func() ([]string, error) { return set.MatchBytes([]byte(doc)) },
		"MatchReader": func() ([]string, error) { return set.MatchReader(strings.NewReader(doc)) },
	} {
		if ids, err := match(); err != nil || len(ids) != 1 || ids[0] != "decided" {
			t.Errorf("%s(%q) = %v, %v; want [decided]", name, doc, ids, err)
		}
	}
}
