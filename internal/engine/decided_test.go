package engine

import "testing"

// TestDecidedAcrossOutputKinds pins the event at which Decided first holds
// (firstDecided) where outputs of both kinds meet: an ungated output, which
// latches off the accept list of the item set its element enters, and a
// gated one, which latches through the trie's scopes. The sets are serve's
// eight templates; an ungated and a gated output at one state, the root
// element's among them; a predicate below a predicate-free prefix; and
// attribute outputs below a child and a descendant step from the root. The
// events count from StartDocument, 1.
//
// Past the root element's end no element can start, yet an ungated output
// and a gated one below a descendant step from the root stay undecided
// until EndDocument, while a gated one below a child step from the root is
// decided at that end; several rows turn on it.
func TestDecidedAcrossOutputKinds(t *testing.T) {
	serve := []string{
		"/news/item",
		"/news/item/title",
		"/news//p",
		"/news/item[priority > 2]",
		`/news/item[keyword = "go"]`,
		"/news/*/keyword",
		"/feed/entry",
		"//item[keyword]/body",
	}
	for _, c := range []struct {
		name  string
		subs  []string
		doc   string
		event int
	}{
		// The second item matches the two gated templates; /feed/entry is
		// dead at the root, and <p> latches the last of the rest.
		{"serve: matching news", serve,
			"<news><item><title>a</title><keyword>xml</keyword><priority>1</priority><body><p>x</p></body></item>" +
				"<item><title>b</title><keyword>go</keyword><priority>5</priority><body><p>y</p></body></item></news>", 28},
		// Nothing names a keyword: the keyword templates stay open to the end.
		{"serve: keyword-free news", serve,
			"<news><item><title>a</title><priority>1</priority><body><p>x</p></body></item></news>", 17},
		// Only /feed/entry and the descendant template can still match below
		// a <feed>; both do.
		{"serve: feed root", serve,
			"<feed><item><keyword>k</keyword><body/></item><entry/></feed>", 10},
		// The gated templates below /news fail; every other open one has
		// matched, so the root element's end decides them.
		{"serve: root end decides the gated", serve,
			"<news><item><keyword>x</keyword><body><p/></body><title/></item></news>", 14},

		{"one state: both latch", []string{"/a/b", "/a[x]/b"}, "<a><b/><x/></a>", 5},
		// /a[x]/b is gated below a child step: decided at </a>.
		{"one state: the gated fails", []string{"/a/b", "/a[x]/b"}, "<a><b/></a>", 5},
		// /a/b is ungated: open until EndDocument.
		{"one state: the ungated fails", []string{"/a/b", "/a[x]/b"}, "<a><x/></a>", 6},
		{"one state: both dead", []string{"/a/b", "/a[x]/b"}, "<z/>", 2},
		// The same at the root element's own state, whose gated output is
		// still to be decided when it is entered.
		{"root state: both latch", []string{"/a", "/a[x]"}, "<a><y/><x/></a>", 5},
		{"root state: the gated fails", []string{"/a", "/a[x]"}, "<a><y/></a>", 5},

		{"predicated below a prefix: matches", []string{"/r/a[b]/c"}, "<r><a><c/><b/></a></r>", 6},
		{"predicated below a prefix: refuted", []string{"/r/a[b]/c"}, "<r><a><c/></a><a><b/></a></r>", 11},
		{"predicated below a prefix: no a", []string{"/r/a[b]/c"}, "<r><x/></r>", 5},
		{"predicated below a prefix: dead", []string{"/r/a[b]/c"}, "<q/>", 2},

		{"attributes: both match", []string{"//a/@x", "/a/@x"}, `<a x="1"/>`, 3},
		{"attributes: the child step fails", []string{"//a/@x", "/a/@x"}, `<a y="1"><a x="2"/></a>`, 11},
		{"attributes: below another root", []string{"//a/@x", "/a/@x"}, `<b><a x="1"/></b>`, 4},
		// /a/@x is decided at </a>, //a/@x only at EndDocument.
		{"attributes: neither", []string{"//a/@x", "/a/@x"}, "<a/>", 4},
	} {
		e := New()
		for i, src := range c.subs {
			mustAdd(t, e, string(rune('a'+i)), src)
		}
		if got := firstDecided(t, e, c.doc); got != c.event {
			t.Errorf("%s: decided after event %d, want %d", c.name, got, c.event)
		}
	}
}
