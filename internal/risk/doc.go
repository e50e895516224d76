// Package risk implements the benchmark's raison d'être as stated in the
// paper's introduction: banking regulation requires a daily evaluation of
// the risk of the whole portfolio, which means pricing every claim "for
// various values of these model parameters to measure their
// sensibilities" — around 10⁶ atomic computations per day.
//
// The package turns a portfolio plus a set of parameter scenarios
// (spot/volatility/rate ladders, stress events, full spot×vol grids) into
// that flood of atomic pricing problems, revalues them on the Robin-Hood
// farm, and aggregates scenario P&L, empirical value-at-risk and
// portfolio-level greeks.
//
// Engine has one route to the farm, priceRound, and two kinds of task on
// it. PriceBatch farms problems, one task each. RevalueContext farms
// sweeps: a claim with the parameter overrides its scenarios resolve to
// (the values Scenario.Apply would set), at most 2 × BatchSize cells to a
// sweep, each sweep answered by a block of results it scatters onto the
// surface by cell. Sweeps share a message up to 2 × BatchSize cells, or,
// when every claim's method is instantaneous (premia.Instantaneous: the
// closed-form vanillas, cells well under a microsecond), about eight
// messages a worker carry the whole round. Every cell is priced as its
// method's own kernel prices it on exactly the parameters Apply gives it,
// so the surface is bit for bit what Apply + Compute returns; what the
// sweep saves is everything around the kernel that used to be paid once
// per cell — for the Monte Carlo methods with a block form, the paths
// themselves, drawn once for all the sweep's cells — and bunching what
// used to be paid once per claim.
package risk
