package premia

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"math"
	"slices"
	"strconv"
	"testing"
)

func ckProblem() *Problem {
	return New().
		SetModel(ModelBS1D).
		SetOption(OptCallEuro).
		SetMethod(MethodCFCall).
		Set("S0", 100).Set("r", 0.05).Set("sigma", 0.2).
		Set("K", 100).Set("T", 1)
}

func TestContentKeyDeterministic(t *testing.T) {
	a, b := ckProblem(), ckProblem()
	if a.ContentKey() != b.ContentKey() {
		t.Fatal("identical problems hash differently")
	}
	if got := a.Clone().ContentKey(); got != a.ContentKey() {
		t.Fatal("clone hashes differently")
	}
	if len(a.ContentKey()) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(a.ContentKey()))
	}
}

func TestContentKeyInsertionOrderIrrelevant(t *testing.T) {
	a := New().SetModel(ModelBS1D).SetOption(OptCallEuro).SetMethod(MethodCFCall).
		Set("S0", 100).Set("K", 90)
	b := New().SetModel(ModelBS1D).SetOption(OptCallEuro).SetMethod(MethodCFCall).
		Set("K", 90).Set("S0", 100)
	if a.ContentKey() != b.ContentKey() {
		t.Fatal("parameter insertion order changed the key")
	}
}

func TestContentKeySensitivity(t *testing.T) {
	base := ckProblem().ContentKey()
	cases := map[string]*Problem{
		"param value":  ckProblem().Set("K", 101),
		"extra param":  ckProblem().Set("q", 0.01),
		"method":       ckProblem().SetMethod(MethodMCEuro),
		"option":       ckProblem().SetOption(OptPutEuro),
		"seed":         ckProblem().Set("seed", 42),
		"64-bit seed":  ckProblem().SetSeed(1 << 40),
		"64-bit seed2": ckProblem().SetSeed(1<<40 + 1),
	}
	seen := map[string]string{"base": base}
	for name, p := range cases {
		k := p.ContentKey()
		for prev, pk := range seen {
			if k == pk {
				t.Fatalf("%q collides with %q", name, prev)
			}
		}
		seen[name] = k
	}
}

// The kernel thread count never changes a price (the shard decomposition
// is thread-invariant), so it must not change the content address either:
// a warm cache entry priced on 8 threads serves the serial request.
func TestContentKeyIgnoresThreads(t *testing.T) {
	if ckProblem().ContentKey() != ckProblem().Set("threads", 8).ContentKey() {
		t.Fatal("threads parameter changed the content key")
	}
}

// contentKeyReference is ContentKey as first written — a streaming
// hash.Hash fed field by field, keys from Params.Keys — kept as the
// definition the one-buffer version is checked against.
func contentKeyReference(p *Problem) string {
	h := sha256.New()
	var buf [8]byte
	writeStr := func(s string) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	writeStr(p.Asset)
	writeStr(p.Model)
	writeStr(p.Option)
	writeStr(p.Method)
	for _, k := range slices.Sorted(maps.Keys(p.Params)) {
		if k == kernelThreadsKey {
			continue
		}
		writeStr(k)
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.Params[k]))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestContentKeyGolden pins the address itself: the keys are what a
// cache shared between builds is indexed by, so a faster encoder must
// produce the digest the first one did — on the closed-form call, on a
// seeded Monte Carlo problem with a threads parameter to skip, and on a
// problem too big for the encoder's stack buffers.
func TestContentKeyGolden(t *testing.T) {
	mc := ckProblem().SetMethod(MethodMCEuro).Set("paths", 1e5).Set("threads", 8).SetSeed(0xfeedfacecafebeef)
	for want, p := range map[string]*Problem{
		"ebeb96652b06e0009c34f65afc38798eacdb8a91c8827cf59ca850639e855e2e": ckProblem(),
		"400becc9ce0d248eb35227498f341a7ef05c323ccd76a9e9545d632cd06d33ca": mc,
	} {
		if got := p.ContentKey(); got != want {
			t.Errorf("ContentKey %s, recorded %s", got, want)
		}
	}
	wide := ckProblem()
	for i := 0; i < 64; i++ {
		wide.Set("a_rather_long_parameter_name_"+strconv.Itoa(i), float64(i)/7)
	}
	for name, p := range map[string]*Problem{
		"closed form": ckProblem(),
		"seeded mc":   mc,
		"empty":       New(),
		"wide":        wide,
	} {
		if got, want := p.ContentKey(), contentKeyReference(p); got != want {
			t.Errorf("%s: ContentKey %s, reference %s", name, got, want)
		}
	}
}

// TestContentKeyAllocs is the key's allocation budget: the returned
// string and nothing else.
func TestContentKeyAllocs(t *testing.T) {
	p := ckProblem()
	if got := testing.AllocsPerRun(200, func() { _ = p.ContentKey() }); got > 1 {
		t.Errorf("ContentKey allocates %v times per call, budget is 1", got)
	}
}
