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
	// sweep is the method's sweep form: it prices every cell of a sweep
	// over base in one call, results[k] and errs[k] being fn's on base
	// with cells[k] set, to the bit (errs nil when every cell priced).
	// It is onScratch(fn) unless the method registers one of its own.
	sweep func(base *Problem, cells [][]Override) ([]Result, []error)
	// instant marks a method whose cells each cost well under a
	// microsecond (the closed-form vanillas), so a revaluation of nothing
	// else is bunched (Instantaneous).
	instant bool
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
	methods[name] = methodSpec{asset: asset, models: ms, options: os, fn: fn, sweep: onScratch(fn)}
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
		barrierCall("L", false, downOutCall))
	register(MethodCFCallUpOut,
		[]string{ModelBS1D},
		[]string{OptCallUpOut},
		barrierCall("U", true, upOutCall))
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
	// and realistic books is a CF_Call, priced in well under a
	// microsecond. The Monte Carlo methods of the realistic book draw a
	// sweep's paths once for all its cells.
	registerSweep(MethodCFCall, true, vanillaSweep(bsCallPrice))
	registerSweep(MethodCFPut, true, vanillaSweep(bsPutPrice))
	registerSweep(MethodMCBasket, false, blockSweep(basketOf, basketPrices))
	registerSweep(MethodMCLocalVol, false, blockSweep(localVolOf, localVolPrices))
	registerSweep(MethodMCAmerLSM, false, blockSweep(lsmOf, lsmPrices))
	// The PDE methods price a sweep's cells side by side at the kernel's
	// width.
	registerSweep(MethodFDCrank, false, cellParallel(fdCrankNicolson))
	registerSweep(MethodFDBS, false, cellParallel(fdBrennanSchwartz))
	registerSweep(MethodFDPSOR, false, cellParallel(fdPSOR))
}

// registerSweep gives a registered method a sweep form of its own, and
// says whether its cells are instantaneous.
func registerSweep(name string, instant bool, sweep func(*Problem, [][]Override) ([]Result, []error)) {
	spec := methods[name]
	spec.sweep, spec.instant = sweep, instant
	methods[name] = spec
}

// Instantaneous reports whether the named method prices a cell in well
// under a microsecond — the closed-form vanillas, the paper's "almost
// instantaneous" pricing — so that a message of its cells costs the farm
// more than the kernel.
func Instantaneous(method string) bool { return methods[method].instant }

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
