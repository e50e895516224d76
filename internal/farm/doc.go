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
// hierarchy of sub-masters via RunRootMaster/RunSubMaster. The hierarchy
// runs on the simulator (the nested sweep and the ablations): no engine
// runs it live, and a sub-master receives payload bytes, never objects.
//
// Problems and results cross the farm as themselves in process and as
// their hashes on the wire. A task may carry its problem as an object
// (Task.Obj); on a communicator whose ranks share an address space
// (mpi.ObjRefComm) the worker is handed that very value — a
// *premia.Problem is priced as it stands — and answers with a *Priced
// the master reads field by field. Both types know their nsp wire form
// (nsp.WireFormer) and the nsp codec's encode path is the only caller:
// a framed transport and LiveLoader see the same bytes as if the hashes
// had been built up front, and nothing in process pays for
// a format nobody reads. AsPriced reads a collected result in either
// form.
//
// A task may also be a sweep: one problem under a list of parameter
// overrides (*premia.Sweep), answered by a *PricedBlock holding every
// cell's result or failure by cell index — what a revaluation farms, so
// that a claim under 24 scenarios is one task, one pair of spans and one
// copy of its parameter table, not 25 of each. A sweep has no wire form.
// By reference the worker prices it as it stands; on the bytes side of the
// same seam (byReference) the dispatcher deals its cells as ordinary
// problem tasks in the message the sweep was in — so a wire carries what
// it always carried — and folds their results back into the block as the
// round ends, each block at its sweep's index (sweep.go).
//
// A pricing failure is final. Every rank prices a task alike, so the
// master books a failed task once — its Result.Err names the rank, it
// adds one to farm.task_errors and emits one farm.task.fail event — and
// never farms it again; like the paper's master, it collects what comes
// back. A rank that is itself broken is a transport failure, below.
//
// There is one dispatch path and one driver. The dispatcher
// (dispatch.go) is a state machine with no loop of its own — submit a
// round, feed an idle rank, book a reply, cancel a round — whose
// bookkeeping (queue, results, in-flight count, farm.run span, context)
// is per round and whose per-rank slot remembers which round the batch
// it holds belongs to, and the round index of its first task; an idle
// rank draws from the open rounds in rotation. Like the paper's master,
// it collects answers as they arrive, but it places each at its task's
// index: every entry point returns results[i] for tasks[i], and a task's
// name only labels it. A reply that is not one result per task of its
// batch, each echoing its task's name, fails the session with the rank
// named. A Session drives it: ranks spawned once (Open over any
// communicator, Local.Open for a flat in-process world), any number of
// concurrent Run calls, and one stop message in
// Close. The session owns no goroutine: each Run seeds the idle ranks
// under the session lock, and whichever caller finds the master's mailbox
// free receives — book the reply, feed the rank that answered — until its
// own round is over, then wakes a waiting caller to take it over. A
// transport failure fails every round in flight with its cause, and the
// session's owner opens another. Local.Run is Open, one round, Close;
// RunMaster, RunStaticMaster and RunRootMaster are one round of a session
// over the caller's ranks under their assignment policy, and RunSubMaster
// a session over its group for its whole life — so a lone round's
// dispatch order, and every makespan the simulator times, is the paper's
// master loop.
package farm
