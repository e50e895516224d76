package lib

import "testing"

// A test's uses keep nothing alive: the loader does not read this file.
func TestOnlyTested(t *testing.T) {
	c := Config{TestSet: 1}
	if OnlyTested()+unreferenced(0)+c.TestSet != 2 {
		t.Fail()
	}
	Seam()
}
