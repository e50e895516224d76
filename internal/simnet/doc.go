// Package simnet is a discrete-event simulator of the cluster the paper
// ran on (a 256-node, 512-core SUPELEC cluster on Gigabit Ethernet with an
// NFS file system). It exists because the benchmark's evaluation sweeps
// 2–512 CPUs, which cannot be executed for real on one machine: instead,
// per-task compute costs (calibrated from the paper's §4.3 figures or
// measured live) are replayed on virtual nodes while the network and NFS
// are modelled explicitly.
//
// The simulation is process-oriented: World.Go starts every simulated rank
// as a coroutine (iter.Pull) that the engine resumes directly when one of
// its events is due, and that yields back when it sleeps or waits for a
// message. Exactly one of them runs at a time, so simulated programs are
// written as ordinary blocking Go code. Comm implements the same mpi.Comm
// interface as the live transports; the farm package's master/worker code
// therefore runs unmodified in virtual time.
//
// Model parameters:
//
//   - Link: per-message latency, bandwidth, and per-message CPU send
//     overhead on the sender (which serialises the master's sends, the
//     effect that caps speedup in the paper's Tables I and II).
//   - NFS: a FIFO server resource with per-request service time plus
//     transfer time, and a per-node client cache (the cache is what made
//     the paper's NFS columns beat serialized-load at high CPU counts).
//   - Compute: Comm.Compute(seconds) advances the owning process's clock.
package simnet
