package nsp_test

import (
	"testing"

	"riskbench/internal/nsp"
	"riskbench/internal/portfolio"
)

// TestProblemCodecAllocs is the codec's allocation budget on the message
// the farm ships most: one toy-book problem as its hash (294 bytes). The
// encoder appends to one buffer (beside it, the hash's sorted keys and
// their sort.Interface box; the Serial is not kept here) and the decoder
// slices the stream, so what is left coming back is the objects
// themselves: a struct, a data slice and a string per field. Streaming
// the same bytes through bufio cost 8 and 57.
func TestProblemCodecAllocs(t *testing.T) {
	h, err := portfolio.Toy(1).Items[0].Problem.ToNsp()
	if err != nil {
		t.Fatal(err)
	}
	ser, err := nsp.Serialize(h)
	if err != nil {
		t.Fatal(err)
	}
	out := testing.AllocsPerRun(200, func() {
		if _, err := nsp.Serialize(h); err != nil {
			t.Fatal(err)
		}
	})
	back := testing.AllocsPerRun(200, func() {
		if _, err := ser.Unserialize(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d-byte problem: %v allocations to serialize, %v to unserialize", len(ser.Data), out, back)
	if out > 4 || back > 48 {
		t.Errorf("a %d-byte problem costs %v allocations to serialize and %v to unserialize, want <= 4 and <= 48", len(ser.Data), out, back)
	}
}
