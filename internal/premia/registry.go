package premia

import "sort"

// Registered method names.
const (
	MethodCFCall        = "CF_Call"
	MethodCFPut         = "CF_Put"
	MethodCFCallDownOut = "CF_CallDownOut"
	MethodCFHeston      = "CF_Heston"
	MethodTreeCRR       = "TR_CRR"
	MethodFDCrank       = "FD_CrankNicolson"
	MethodFDBS          = "FD_BrennanSchwartz"
	MethodFDPSOR        = "FD_PSOR"
	MethodMCEuro        = "MC_Euro"
	MethodMCHeston      = "MC_Heston"
	MethodMCBasket      = "MC_Basket"
	MethodMCLocalVol    = "MC_LocalVol"
	MethodMCAmerLSM     = "MC_AM_LongstaffSchwartz"
	MethodMCAmerAlfonsi = "MC_AM_Alfonsi_LongstaffSchwartz"
)

// methodSpec records a numerical method's compatibility sets and its
// implementation, the Go analogue of Premia's pricing-method table.
type methodSpec struct {
	asset   string
	models  map[string]bool
	options map[string]bool
	fn      func(*Problem) (Result, error)
	// sweep, when set, is the method's sweep form: given a sweep's base
	// parameters it returns the pricer of its cells, whose results are
	// fn's on the base with the cell's overrides set, to the bit.
	// Sweep.Compute runs fn on a scratch copy of the base without one.
	sweep func(Params) func([]Override) (Result, error)
}

// methods is the global registry, populated by init in this file so the
// whole catalogue is visible in one place.
var methods = map[string]methodSpec{}

// register adds an equity-asset method (the default asset class).
func register(name string, models, options []string, fn func(*Problem) (Result, error)) {
	registerAsset("equity", name, models, options, fn)
}

// registerAsset adds a method under an explicit asset class.
func registerAsset(asset, name string, models, options []string, fn func(*Problem) (Result, error)) {
	ms := make(map[string]bool, len(models))
	for _, m := range models {
		ms[m] = true
	}
	os := make(map[string]bool, len(options))
	for _, o := range options {
		os[o] = true
	}
	methods[name] = methodSpec{asset: asset, models: ms, options: os, fn: fn}
}

func init() {
	register(MethodCFCall,
		[]string{ModelBS1D},
		[]string{OptCallEuro},
		cfCall)
	register(MethodCFPut,
		[]string{ModelBS1D},
		[]string{OptPutEuro},
		cfPut)
	register(MethodCFCallDownOut,
		[]string{ModelBS1D},
		[]string{OptCallDownOut},
		cfCallDownOut)
	register(MethodCFCallUpOut,
		[]string{ModelBS1D},
		[]string{OptCallUpOut},
		cfCallUpOut)
	register(MethodCFHeston,
		[]string{ModelHeston},
		[]string{OptCallEuro, OptPutEuro},
		cfHeston)
	register(MethodTreeCRR,
		[]string{ModelBS1D},
		[]string{OptCallEuro, OptPutEuro, OptPutAmer, OptCallAmer},
		treeCRR)
	register(MethodTreeTrinomial,
		[]string{ModelBS1D},
		[]string{OptCallEuro, OptPutEuro, OptPutAmer, OptCallAmer},
		treeTrinomial)
	register(MethodFDCrank,
		[]string{ModelBS1D},
		[]string{OptCallEuro, OptPutEuro, OptCallDownOut, OptCallUpOut},
		fdCrankNicolson)
	register(MethodFDBS,
		[]string{ModelBS1D},
		[]string{OptPutAmer},
		fdBrennanSchwartz)
	register(MethodFDPSOR,
		[]string{ModelBS1D},
		[]string{OptPutAmer},
		fdPSOR)
	register(MethodMCEuro,
		[]string{ModelBS1D},
		[]string{OptCallEuro, OptPutEuro, OptCallDownOut, OptCallUpOut},
		mcEuro)
	register(MethodMCHeston,
		[]string{ModelHeston},
		[]string{OptCallEuro, OptPutEuro},
		mcHestonEuro)
	register(MethodMCBasket,
		[]string{ModelBSND},
		[]string{OptPutBasketEuro, OptCallBasketEuro},
		mcBasket)
	register(MethodMCLocalVol,
		[]string{ModelLocVol},
		[]string{OptCallEuro, OptPutEuro},
		mcLocalVol)
	register(MethodMCAmerLSM,
		[]string{ModelBS1D, ModelBSND},
		[]string{OptPutAmer, OptPutBasketAmer},
		mcAmerLSM)
	register(MethodMCAmerAlfonsi,
		[]string{ModelHeston},
		[]string{OptPutAmer},
		mcAmerAlfonsi)
	register(MethodCFMerton,
		[]string{ModelMerton},
		[]string{OptCallEuro, OptPutEuro},
		cfMerton)
	register(MethodMCMerton,
		[]string{ModelMerton},
		[]string{OptCallEuro, OptPutEuro},
		mcMerton)
	register(MethodCFDigital,
		[]string{ModelBS1D},
		[]string{OptDigitalCall, OptDigitalPut},
		cfDigital)
	register(MethodMCAsianCV,
		[]string{ModelBS1D},
		[]string{OptAsianCallFix, OptAsianPutFix},
		mcAsianCV)
	register(MethodQMCBasket,
		[]string{ModelBSND},
		[]string{OptPutBasketEuro, OptCallBasketEuro},
		qmcBasket)
	register(MethodCFLookback,
		[]string{ModelBS1D},
		[]string{OptLookbackCallFloat},
		cfLookback)
	register(MethodMCLookback,
		[]string{ModelBS1D},
		[]string{OptLookbackCallFloat},
		mcLookback)
	registerAsset(AssetRate, MethodCFVasicek,
		[]string{ModelVasicek},
		[]string{OptZCBond, OptZCCall},
		cfVasicek)
	registerAsset(AssetRate, MethodMCVasicek,
		[]string{ModelVasicek},
		[]string{OptZCBond, OptZCCall},
		mcVasicek)
	registerAsset(AssetCredit, MethodCFCredit,
		[]string{ModelConstHazard},
		[]string{OptDefaultableBond, OptCDS},
		cfCredit)
	registerAsset(AssetCredit, MethodMCCredit,
		[]string{ModelConstHazard},
		[]string{OptDefaultableBond, OptCDS},
		mcCredit)

	// The methods a revaluation sweeps in volume: every vanilla of the toy
	// and realistic books is a CF_Call.
	registerSweep(MethodCFCall, vanillaSweep(bsCallPrice))
	registerSweep(MethodCFPut, vanillaSweep(bsPutPrice))
}

// registerSweep gives a registered method its sweep form.
func registerSweep(name string, sweep func(Params) func([]Override) (Result, error)) {
	spec := methods[name]
	spec.sweep = sweep
	methods[name] = spec
}

// HasSweepForm reports whether the named method prices a sweep's cells
// by a sweep form (the closed-form vanillas), each cell costing well
// under a microsecond.
func HasSweepForm(method string) bool { return methods[method].sweep != nil }

// Methods returns the names of all registered methods, sorted.
func Methods() []string {
	names := make([]string, 0, len(methods))
	for n := range methods {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MethodAsset returns the asset class of a registered method ("" if
// unknown).
func MethodAsset(method string) string {
	return methods[method].asset
}

// MethodSupports reports whether the named method accepts the given model
// and option.
func MethodSupports(method, model, option string) bool {
	spec, ok := methods[method]
	return ok && spec.models[model] && spec.options[option]
}

// Compatibles returns every (model, option) pair the named method accepts,
// sorted; it drives the generation of the non-regression test suite
// (paper §4.1, one instance of every registered pricing problem).
func Compatibles(method string) (models, options []string) {
	spec, ok := methods[method]
	if !ok {
		return nil, nil
	}
	for m := range spec.models {
		models = append(models, m)
	}
	for o := range spec.options {
		options = append(options, o)
	}
	sort.Strings(models)
	sort.Strings(options)
	return models, options
}
