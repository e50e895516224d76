// Package lib seeds testonly's cases: what only its test file uses is
// flagged, what production code uses — here or from a package outside
// internal/ — is not.
package lib

import (
	"container/heap"
	"fmt"
)

// OnlyTested is called by lib_test.go alone.
func OnlyTested() int { return 1 } // want `OnlyTested is used only by tests`

// unreferenced has no caller at all; its recursion does not keep it alive.
func unreferenced(n int) int { // want `unreferenced is used only by tests`
	if n == 0 {
		return 0
	}
	return unreferenced(n - 1)
}

// UsedByCmd is called from cmd/app, which is production code.
func UsedByCmd() int { return Pending(Config{Used: 2}) }

// Config has one field production sets and one only the test sets.
type Config struct {
	Used    int
	TestSet int // want `field TestSet is set only by tests`
	Decoded int `json:"decoded"`
	Addr    string
}

// Bind writes Addr through its address, the way flag.StringVar does.
func Bind(c *Config) *string { return &c.Addr }

// queue is a heap: its methods are reached through heap.Interface.
type queue []int

func (q queue) Len() int           { return len(q) }
func (q queue) Less(i, j int) bool { return q[i] < q[j] }
func (q queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)        { *q = append(*q, x.(int)) }
func (q *queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// Kind prints through fmt.Stringer.
type Kind int

func (k Kind) String() string { return fmt.Sprint(int(k)) }

// Pending queues c's fields and reports how many are queued.
func Pending(c Config) int {
	q := &queue{}
	heap.Push(q, c.Used+c.TestSet+c.Decoded)
	return q.Len()
}

// Seam is a fake's entry point that only tests call, kept on purpose.
//
//lint:allow testonly the fixture's fake executor plugs in here
func Seam() {}

// Describe is used by cmd/app, so the exemption above it is stale.
//
//lint:allow testonly no longer a seam // want `suppresses nothing here`
func Describe() string { return fmt.Sprint(Kind(1)) }
