package streamxpath_test

import (
	"fmt"

	"streamxpath"
)

func ExampleMatch() {
	matched, err := streamxpath.Match(
		"/inventory/item[price < 10]",
		"<inventory><item><price>7</price></item></inventory>")
	if err != nil {
		panic(err)
	}
	fmt.Println(matched)
	// Output: true
}

func ExampleQuery_NewFilter() {
	q := streamxpath.MustCompile(`//item[keyword = "go"]`)
	f, err := q.NewFilter()
	if err != nil {
		panic(err)
	}
	for _, doc := range []string{
		"<news><item><keyword>go</keyword></item></news>",
		"<news><item><keyword>xml</keyword></item></news>",
	} {
		ok, _ := f.MatchString(doc)
		fmt.Println(ok)
	}
	// Output:
	// true
	// false
}

func ExampleQuery_Evaluate() {
	q := streamxpath.MustCompile("/library[open]/book")
	vals, err := q.Evaluate("<library><open/><book>Dune</book><book>Solaris</book></library>")
	if err != nil {
		panic(err)
	}
	fmt.Println(vals)
	// Output: [Dune Solaris]
}

func ExampleQuery_NewStreamEvaluator() {
	q := streamxpath.MustCompile(`/orders/order[status = "paid"]/id`)
	se, err := q.NewStreamEvaluator()
	if err != nil {
		panic(err)
	}
	vals, err := se.EvaluateString(
		"<orders>" +
			"<order><id>17</id><status>paid</status></order>" +
			"<order><id>18</id><status>open</status></order>" +
			"</orders>")
	if err != nil {
		panic(err)
	}
	fmt.Println(vals)
	// Output: [17]
}

func ExampleQuery_Analyze() {
	q := streamxpath.MustCompile("/a[c[.//e and f] and b > 5]")
	a := q.Analyze()
	fmt.Printf("size=%d frontier=%d redundancy-free=%v streamable=%v\n",
		a.Size, a.FrontierSize, a.RedundancyFree, a.Streamable)
	// Output: size=6 frontier=3 redundancy-free=true streamable=true
}
