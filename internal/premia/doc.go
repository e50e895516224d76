// Package premia is a from-scratch Go reimplementation of the slice of the
// Premia financial library exercised by the Premia/Nsp/MPI benchmark: the
// pricing and hedging of equity derivatives under several models with
// several numerical methods.
//
// A pricing problem is the triple (model, option, method) plus a flat
// parameter set, exactly as in Premia where one writes
//
//	P = premia_create()
//	P.set_model[str="BlackScholes1dim"]
//	P.set_option[str="CallEuro"]
//	P.set_method[str="CF_Call"]
//	P.compute[]
//
// Models: one-dimensional Black–Scholes, multi-dimensional Black–Scholes
// with single-factor correlation, a parametric local-volatility model and
// the Heston stochastic-volatility model.
//
// Options: European calls and puts, down-and-out and up-and-out barrier
// calls, American puts, European basket puts and American basket puts.
//
// Methods: closed formulas (Black–Scholes, Reiner–Rubinstein barrier,
// semi-analytic Heston by Fourier inversion), Cox–Ross–Rubinstein trees,
// Crank–Nicolson finite differences (one time-step loop whose step ends
// in a tridiagonal solve, or in the Brennan–Schwartz or projected SOR
// treatment of the American obstacle), Monte Carlo (exact Black–Scholes
// sampling, a bridge-corrected barrier path in either direction, Euler
// for local volatility, Alfonsi's drift-implicit square-root scheme for
// Heston) and Longstaff–Schwartz American Monte Carlo (one backward
// induction for Black–Scholes spots, baskets and Heston's spot and
// variance).
//
// The multicore pricing kernel (parallel.go) is the one Monte Carlo
// runtime: every Monte Carlo method draws its paths from the kernel's
// shard streams, and no other file seeds an RNG. It spends a problem's
// "threads", else the SetKernelThreads default, on one loop, dispatch:
// the shards of a Monte Carlo path budget, the cells of a PDE sweep and
// the backward inductions of a Longstaff–Schwartz sweep run side by side
// on it, each self-contained, so every price is the same at any width.
// Other sweep forms keep their cells serial: a closed-form cell costs
// less than the hand-off, and Alfonsi's Heston LSM may hold 1 GiB a cell.
//
// Problems serialize to the nsp object model, whose big-endian stream is
// both the wire format and the save format, so they can be saved to
// architecture-independent files, reloaded, and shipped to remote workers
// by the farm package using any of the paper's three communication
// strategies.
package premia
