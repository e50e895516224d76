// Package mpi provides the message-passing layer of the benchmark: a small
// MPI-2-flavoured API (ranked communicators, tagged sends, blocking
// probe/receive, packed buffers, object transmission) implemented from
// scratch, since Go has no MPI ecosystem:
//
//   - an in-process world where every rank is a goroutine and messages
//     move through mailboxes (the moral equivalent of MPI_Comm_spawn-ing
//     Nsp slaves on one node, paper Fig. 1);
//   - framed hub worlds over one of three transports: rank 0 listens,
//     workers dial in, and frames are routed through the hub so any rank
//     can message any other rank with a single connection per worker. The
//     transports are tcp (cross-host), unix (same-host worker pools over
//     unix-domain sockets) and inproc (net.Pipe pairs, the full wire path
//     without OS sockets). A receive on the hub that only a dropped worker
//     could answer returns a *LostError instead of blocking.
//
// Hub worlds speak a versioned wire protocol. The connection handshake is
// fixed and v1-compatible (magic in, rank/size out); v2 endpoints then
// exchange hello control frames — invisible to v1 peers — announcing a
// protocol version and a capability set ("spans", "hasdelta"), and settle
// on the minimum version and the capability intersection. Consumers read
// the outcome through the Negotiator interface (PeerProto/PeerCaps), so a
// new master farming to an old worker silently withholds optional payloads
// instead of desynchronizing the stream: rolling fleet upgrades become a
// deploy order, not a flag day. Frame-level violations (oversized lengths,
// malformed hellos) surface as ErrProtocol and drop the connection.
//
// On top of raw byte messages the package offers the paper's object
// primitives: SendObj/RecvObj transmit any nsp.Object by transparent
// serialization (and, as in Nsp, RecvObj "unseals" a received Serial
// object back into the value it wraps), while Pack/Unpack expose the
// MPI_Pack/MPI_Unpack buffer path used by the Fig. 4–5 scripts.
//
// A further implementation of Comm lives in package simnet: a
// discrete-event simulated cluster with the same semantics but virtual
// time, used to reproduce the paper's 2–512 CPU sweeps on one machine.
package mpi
