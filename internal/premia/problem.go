package premia

import (
	"errors"
	"fmt"

	"riskbench/internal/nsp"
)

// Problem is the Go counterpart of Premia's PremiaModel object: the choice
// of an asset class, a model for the underlying, a financial product and a
// numerical method, plus the flat parameter set. The zero value is not
// usable; start from New.
type Problem struct {
	// Asset is the asset class; only "equity" is registered, as in the
	// paper's experiments.
	Asset string
	// Model names the dynamics of the underlying (see models.go).
	Model string
	// Option names the financial product.
	Option string
	// Method names the numerical method used by Compute.
	Method string
	// Params holds every numeric parameter of the triple.
	Params Params
}

// Result holds the output of a pricing computation, mirroring the
// get_method_results content of Premia (price, delta and Monte Carlo
// confidence half-widths when applicable).
type Result struct {
	// Price is the computed option price.
	Price float64
	// PriceCI is the 95% confidence half-width for Monte Carlo methods and
	// 0 for deterministic methods.
	PriceCI float64
	// Delta is the first derivative of the price with respect to spot.
	Delta float64
	// HasDelta reports whether the method computed a delta.
	HasDelta bool
	// Work is an abstract operation count (grid nodes × steps, paths ×
	// steps, …) that the benchmark's cluster simulator converts into
	// virtual compute time; it makes task costs reproducible without
	// depending on host speed.
	Work float64
}

// New returns an empty problem for the equity asset class with default
// spot/rate parameters, like premia_create followed by set_asset.
func New() *Problem {
	return &Problem{Asset: "equity", Params: Params{}}
}

// SetAsset selects the asset class ("equity" by default, "rate" for the
// interest-rate products).
func (p *Problem) SetAsset(name string) *Problem { p.Asset = name; return p }

// SetModel selects the model by name; unknown names are rejected at
// Compute time so problems can be built before the registry is consulted.
func (p *Problem) SetModel(name string) *Problem { p.Model = name; return p }

// SetOption selects the financial product by name.
func (p *Problem) SetOption(name string) *Problem { p.Option = name; return p }

// SetMethod selects the numerical method by name.
func (p *Problem) SetMethod(name string) *Problem { p.Method = name; return p }

// Set assigns one parameter and returns the problem for chaining.
func (p *Problem) Set(key string, v float64) *Problem {
	if p.Params == nil {
		p.Params = Params{}
	}
	p.Params[key] = v
	return p
}

// SetSeed stores the Monte Carlo seed with full 64-bit fidelity. Params
// values are float64, which represents only 53-bit integers exactly, so
// the seed is split into two 32-bit halves — "seed" (low) and "seedhi"
// (high) — each of which survives the float round trip; mcSeed
// reassembles them. Seeds below 2^32 may equivalently be set through
// Set("seed", …), as before.
func (p *Problem) SetSeed(seed uint64) *Problem {
	p.Set(mcSeedKey, float64(seed&0xffffffff))
	return p.Set(mcSeedHiKey, float64(seed>>32))
}

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem {
	return &Problem{Asset: p.Asset, Model: p.Model, Option: p.Option, Method: p.Method, Params: p.Params.Clone()}
}

// String renders the triple compactly for logs and error messages.
func (p *Problem) String() string {
	return fmt.Sprintf("%s/%s/%s/%s", p.Asset, p.Model, p.Option, p.Method)
}

// Validate checks that the triple is registered and compatible, without
// computing anything. Failures wrap the package's sentinel errors
// (ErrUnknownMethod, ErrUnknownModel, ErrUnknownOption) for errors.Is.
func (p *Problem) Validate() error {
	spec, ok := methods[p.Method]
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownMethod, p.Method)
	}
	if spec.asset != p.Asset {
		return fmt.Errorf("%w: method %q belongs to asset class %q, problem says %q", ErrUnknownModel, p.Method, spec.asset, p.Asset)
	}
	if !spec.models[p.Model] {
		return fmt.Errorf("%w: method %q does not support model %q", ErrUnknownModel, p.Method, p.Model)
	}
	if !spec.options[p.Option] {
		return fmt.Errorf("%w: method %q does not support option %q", ErrUnknownOption, p.Method, p.Option)
	}
	return nil
}

// Compute runs the selected numerical method and returns its result. It is
// the P.compute[] of the paper's scripts.
func (p *Problem) Compute() (Result, error) {
	if err := p.Validate(); err != nil {
		countError()
		return Result{}, err
	}
	in := instrumentsOf(p.Method)
	start := in.reg.Now()
	res, err := methods[p.Method].fn(p)
	if err != nil {
		in.record(start, 1, 0)
		countError()
		return Result{}, err
	}
	in.record(start, 1, res.Work)
	return res, nil
}

// errNil guards the nsp bridge against nil receivers.
var errNil = errors.New("premia: nil problem")

// ToNsp converts the problem into an nsp hash table, the form in which
// problems travel through the message-passing layer.
func (p *Problem) ToNsp() (*nsp.Hash, error) {
	if p == nil {
		return nil, errNil
	}
	h := nsp.NewHash()
	h.Set("asset", nsp.Str(p.Asset))
	h.Set("model", nsp.Str(p.Model))
	h.Set("option", nsp.Str(p.Option))
	h.Set("method", nsp.Str(p.Method))
	params := nsp.NewHash()
	for k, v := range p.Params {
		params.Set(k, nsp.Scalar(v))
	}
	h.Set("params", params)
	return h, nil
}

// A *Problem is an nsp object in its own right, so it can be a farm
// task's payload as itself: between ranks of one address space the
// pointer is what crosses, and the nsp codec asks for the ToNsp hash
// only when it has to write bytes. A problem handed to the farm must
// not be mutated until the round returns.
var _ nsp.WireFormer = (*Problem)(nil)

// Kind implements nsp.Object: a problem travels as a hash.
func (p *Problem) Kind() nsp.Kind { return nsp.KindHash }

// WireForm implements nsp.WireFormer with the ToNsp hash.
func (p *Problem) WireForm() (nsp.Object, error) { return p.ToNsp() }

// Equal implements nsp.Object as equality of wire forms, so a problem
// equals both another problem with the same content and the hash either
// of them travels as.
func (p *Problem) Equal(o nsp.Object) bool { return nsp.WireEqual(p, o) }

// FromNsp rebuilds a problem from the hash produced by ToNsp.
func FromNsp(o nsp.Object) (*Problem, error) {
	h, ok := o.(*nsp.Hash)
	if !ok {
		return nil, fmt.Errorf("premia: expected hash, got %v", o.Kind())
	}
	p := New()
	// In ToNsp's order, so a hash missing several fields always fails
	// naming the same one.
	for _, f := range [...]struct {
		name string
		dst  *string
	}{{"asset", &p.Asset}, {"model", &p.Model}, {"option", &p.Option}, {"method", &p.Method}} {
		v, ok := h.Get(f.name)
		if !ok {
			return nil, fmt.Errorf("premia: hash missing field %q", f.name)
		}
		s, ok := v.(*nsp.SMat)
		if !ok || s.Rows != 1 || s.Cols != 1 {
			return nil, fmt.Errorf("premia: field %q is not a string", f.name)
		}
		*f.dst = s.StrValue()
	}
	pv, ok := h.Get("params")
	if !ok {
		return nil, errors.New("premia: hash missing field \"params\"")
	}
	ph, ok := pv.(*nsp.Hash)
	if !ok {
		return nil, errors.New("premia: params field is not a hash")
	}
	for _, k := range ph.Keys() {
		v, _ := ph.Get(k)
		m, ok := v.(*nsp.Mat)
		if !ok || m.Rows != 1 || m.Cols != 1 {
			return nil, fmt.Errorf("premia: parameter %q is not a scalar", k)
		}
		p.Params[k] = m.ScalarValue()
	}
	return p, nil
}

// Save writes the problem to a file via the nsp object format, so the file
// can be consumed by Load, nsp.Load or nsp.SLoad (the serialized-load
// strategy of the paper).
func (p *Problem) Save(path string) error {
	h, err := p.ToNsp()
	if err != nil {
		return err
	}
	return nsp.Save(path, h)
}

// Load reads a problem written by Save.
func Load(path string) (*Problem, error) {
	o, err := nsp.Load(path)
	if err != nil {
		return nil, err
	}
	return FromNsp(o)
}
