package nsp_test

import (
	"testing"

	"riskbench/internal/nsp"
	"riskbench/internal/portfolio"
)

// TestProblemCodecAllocs is the codec's allocation budget on the message
// the farm ships most: one toy-book problem as its hash (294 bytes). The
// encoder stages every integer in its own scratch and the decoder reads
// through one, so neither pays an allocation per field; before the one
// codec pair the same problem cost 51 allocations out and 101 back.
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
	if out > 16 || back > 80 {
		t.Errorf("a %d-byte problem costs %v allocations to serialize and %v to unserialize, want <= 16 and <= 80", len(ser.Data), out, back)
	}
}
