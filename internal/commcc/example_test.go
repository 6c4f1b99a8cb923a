package commcc_test

import (
	"fmt"

	"streamxpath/internal/commcc"
	"streamxpath/internal/query"
)

func ExampleVerifyFrontier() {
	rep, err := commcc.VerifyFrontier(query.MustParse("/a[b and c]"), 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("FS=%d family=%d distinct filter states=%d\n",
		rep.Parameter, rep.FamilySize, rep.DistinctStates)
	// Output: FS=2 family=4 distinct filter states=4
}
