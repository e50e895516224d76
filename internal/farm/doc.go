// Package farm implements the paper's parallel portfolio pricer: a
// "Robbin Hood" master/worker task farm (Figs. 4–5) over any mpi.Comm.
// The master seeds every worker with one job, then hands a new job to
// whichever worker returns a result first, until the portfolio is done; a
// final empty message tells each worker to stop.
//
// Three communication strategies, matching the labels of the paper's
// tables, decide how a pricing problem travels from master to worker:
//
//   - FullLoad: the master decodes the problem file into an object, then
//     re-serialises and packs it for transmission (paying the full object
//     construction round on the master).
//   - NFSLoad: the master sends only the file name; the worker reads the
//     file from the shared file system.
//   - SerializedLoad: the master turns the file straight into a Serial
//     buffer (nsp.SLoad) and ships the bytes untouched.
//
// The package is transport- and execution-agnostic: Loader abstracts the
// master-side payload preparation, Executor the worker-side pricing, and
// Store the shared file system, with live implementations (really pricing
// with package premia, really reading files) and simulated ones (charging
// modelled virtual time, reading from the simnet NFS model).
//
// Extensions beyond the paper's experiments, both proposed in its
// conclusion, are included: task batching (send bunches of problems in one
// message to amortise latency) via Options.BatchSize, and a two-level
// hierarchy of sub-masters via RunRootMaster/RunSubMaster.
//
// Problems and results cross the farm as themselves in process and as
// their hashes on the wire. A task may carry its problem as an object
// (Task.Obj); on a communicator whose ranks share an address space
// (mpi.ObjRefComm) the worker is handed that very value — a
// *premia.Problem is priced as it stands — and answers with a *Priced
// the master reads field by field. Both types know their nsp wire form
// (nsp.WireFormer) and the nsp codec's encode path is the only caller:
// a framed transport, LiveLoader and SaveResults see the same bytes as
// if the hashes had been built up front, and nothing in process pays for
// a format nobody reads. AsPriced reads a collected result in either
// form.
//
// Every master entry point (RunMaster, RunStaticMaster, RunRootMaster)
// runs the same round over the same dispatch loop and differs only in
// the assignment policy and the ranks it drives. Layout maps a world's
// ranks to roles (flat or hierarchical), and Local runs a whole round on
// an in-process world of goroutine ranks.
package farm
