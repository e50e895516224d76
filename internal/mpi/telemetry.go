package mpi

import (
	"errors"
	"io"
	"strconv"

	"riskbench/internal/telemetry"
)

// SendObj and RecvObj take no registry, so the message layer books into
// telemetry.Process(): "mpi.msgs_*"/"mpi.bytes_*" counters (also per
// local rank as "mpi.rank<N>.*"), "mpi.pack_seconds"/"mpi.unpack_seconds"
// and the peer-loss events.

// emitPeerEvent files the loss of a peer connection into the flight
// recorder, graded by how it died: a clean EOF is an orderly disconnect
// (info), a protocol violation is an error, anything else — resets,
// timeouts, half-closed sockets — is a warning. Callers suppress the
// events caused by their own Close.
func emitPeerEvent(rank int, err error) {
	reg := telemetry.Process()
	if reg == nil {
		return
	}
	name, level := "mpi.peer.drop", telemetry.LevelWarn
	switch {
	case errors.Is(err, ErrProtocol):
		name, level = "mpi.peer.protocol_error", telemetry.LevelError
	case errors.Is(err, io.EOF):
		name, level = "mpi.peer.disconnect", telemetry.LevelInfo
	}
	reg.Emit(level, name, telemetry.TraceContext{},
		telemetry.Num("rank", float64(rank)), telemetry.Str("err", err.Error()))
}

// countMsg records one object-level message of n bytes in direction dir
// ("sent" or "recv") at the given local rank.
func countMsg(reg *telemetry.Registry, rank int, dir string, n int) {
	if reg == nil {
		return
	}
	reg.Counter("mpi.msgs_" + dir).Add(1)
	reg.Counter("mpi.bytes_" + dir).Add(int64(n))
	pre := "mpi.rank" + strconv.Itoa(rank) + "."
	reg.Counter(pre + "msgs_" + dir).Add(1)
	reg.Counter(pre + "bytes_" + dir).Add(int64(n))
}
