package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Wire-protocol versions of the hub/worker transport. The version is
// negotiated per connection: each side announces what it speaks and the
// pair settles on the minimum, so a fleet can run mixed builds during a
// rolling upgrade.
//
//   - ProtoV1 is the original format: magic, rank/size reply, raw frames.
//     A v1 endpoint announces nothing and understands no control frames;
//     it is what every pre-versioning build speaks.
//   - ProtoV2 adds a capability handshake over in-band control frames
//     (helloDest-addressed, invisible to v1 peers) and gates optional
//     payload features — span shipping, hasdelta markers — on the
//     negotiated capability set.
const (
	ProtoV1 = 1
	ProtoV2 = 2
	// ProtoLatest is what newly built endpoints speak by default.
	ProtoLatest = ProtoV2
)

// ErrProtocol marks wire-level protocol violations: oversized frames,
// malformed hello payloads, corrupt headers. A connection that surfaces
// ErrProtocol is unsynchronized and must be closed, not retried; hubs
// drop the offending peer and keep serving the rest.
var ErrProtocol = errors.New("mpi: protocol error")

// CapSet is a negotiated capability bitmask. On the wire capabilities
// travel as strings, so unknown future names pass through older builds
// unharmed; in memory the known ones fold into bits.
type CapSet uint32

// The negotiable capabilities.
const (
	// CapSpans: the peer understands span payloads — the master packs
	// trace IDs into batch descriptors and the worker ships its finished
	// SpanRecords back with the results.
	CapSpans CapSet = 1 << iota
	// CapHasDelta: the peer understands the "hasdelta" result-hash
	// marker distinguishing "delta is 0" from "method computes no delta".
	CapHasDelta
	// CapEvents: the peer understands flight-recorder event payloads —
	// the worker ships its warning+ events back with the results and the
	// master folds them into its own log with rank attribution.
	CapEvents
)

// AllCaps is every capability this build implements, and the implicit
// assumption v1 endpoints make about each other (v1 had no way to say
// otherwise — exactly the fragility versioning fixes).
const AllCaps = CapSpans | CapHasDelta | CapEvents

// capNames maps wire names to bits. Names, not bit positions, are the
// wire contract: two builds can disagree on bit layout and still
// negotiate correctly.
var capNames = map[string]CapSet{
	"spans":    CapSpans,
	"hasdelta": CapHasDelta,
	"events":   CapEvents,
}

// Has reports whether every capability in want is present.
func (s CapSet) Has(want CapSet) bool { return s&want == want }

// names lists the set's wire names, sorted: the one order String and the
// hello payload use, so a hello's bytes do not depend on map iteration.
func (s CapSet) names() []string {
	var names []string
	for _, name := range []string{"events", "hasdelta", "spans"} {
		if s.Has(capNames[name]) {
			names = append(names, name)
		}
	}
	return names
}

// String renders the set as its sorted wire names.
func (s CapSet) String() string {
	names := s.names()
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ",")
}

// peerInfo is one connection's negotiated view of its peer.
type peerInfo struct {
	proto int
	caps  CapSet
}

// negotiate settles a connection on the common subset: the lower
// version and the capability intersection.
func negotiate(local peerInfo, peer peerInfo) peerInfo {
	p := local.proto
	if peer.proto < p {
		p = peer.proto
	}
	return peerInfo{proto: p, caps: local.caps & peer.caps}
}

// legacyPeer is the assumed identity of a silent (v1) peer: protocol 1
// and no negotiable capabilities, so v2 endpoints conservatively
// withhold every optional feature from peers that never said hello.
var legacyPeer = peerInfo{proto: ProtoV1, caps: 0}

// silentPeer is the view an endpoint holds of a peer that has not (yet)
// said hello: a v1 endpoint assumes the legacy contract — v1 peers
// implement everything, it cannot ask — and a v2 endpoint assumes nothing
// beyond the baseline, so optional payloads are withheld from old builds.
func (local peerInfo) silentPeer() peerInfo {
	if local.proto >= ProtoV2 {
		return negotiate(local, legacyPeer)
	}
	return peerInfo{proto: ProtoV1, caps: AllCaps}
}

// Control-frame addressing. Hello frames travel inside the ordinary
// frame stream but are addressed to helloDest, a rank that cannot
// exist: a v1 hub's router drops such frames silently (dest is neither
// 0 nor a worker rank) and a v1 worker's mailbox holds them without
// ever matching a receive (every real receive names a source >= 0 or
// the AnySource/AnyTag wildcards, which are -1, not -2). That is what
// makes the v2 handshake invisible to v1 peers.
const (
	helloDest = -2
	helloSrc  = -2
	helloTag  = -2
)

// helloMagic opens a hello payload, guarding against an application
// frame that happens to be addressed to helloDest.
var helloMagic = [4]byte{'H', 'E', 'L', 'O'}

// encodeHello builds a hello payload: magic, version, and the
// capability names.
//
//	"HELO" | version u16 | ncaps u16 | ncaps × (len u8, name)
func encodeHello(info peerInfo) []byte {
	names := info.caps.names()
	n := 8
	for _, name := range names {
		n += 1 + len(name)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, helloMagic[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(info.proto))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(names)))
	for _, name := range names {
		buf = append(buf, byte(len(name)))
		buf = append(buf, name...)
	}
	return buf
}

// decodeHello parses a hello payload. Unknown capability names are
// skipped, so a newer peer's extra capabilities degrade to "not
// negotiated" instead of failing the handshake.
func decodeHello(payload []byte) (peerInfo, error) {
	if len(payload) < 8 || [4]byte(payload[:4]) != helloMagic {
		return peerInfo{}, fmt.Errorf("%w: malformed hello", ErrProtocol)
	}
	info := peerInfo{proto: int(binary.BigEndian.Uint16(payload[4:6]))}
	if info.proto < ProtoV1 {
		return peerInfo{}, fmt.Errorf("%w: hello announces version %d", ErrProtocol, info.proto)
	}
	ncaps := int(binary.BigEndian.Uint16(payload[6:8]))
	rest := payload[8:]
	for i := 0; i < ncaps; i++ {
		if len(rest) < 1 {
			return peerInfo{}, fmt.Errorf("%w: truncated hello capability list", ErrProtocol)
		}
		n := int(rest[0])
		if len(rest) < 1+n {
			return peerInfo{}, fmt.Errorf("%w: truncated hello capability name", ErrProtocol)
		}
		info.caps |= capNames[string(rest[1:1+n])] // unknown names fold to 0
		rest = rest[1+n:]
	}
	return info, nil
}

// isHello reports whether a frame is a hello control frame.
func isHello(dest, src, tag int, payload []byte) bool {
	return dest == helloDest && src == helloSrc && tag == helloTag &&
		len(payload) >= 4 && [4]byte(payload[:4]) == helloMagic
}

// Negotiator is the optional Comm interface exposing the outcome of the
// version handshake. Transports that predate negotiation (and the
// in-process world, where both ends are by construction the same build)
// simply don't implement it.
type Negotiator interface {
	// PeerProto returns the negotiated protocol version with the given
	// rank.
	PeerProto(rank int) int
	// PeerCaps returns the negotiated capability set with the given
	// rank.
	PeerCaps(rank int) CapSet
}

// PeerCaps reports the capabilities negotiated between c and rank. For
// communicators without a handshake (in-process worlds) both ends are
// the same build, so the answer is AllCaps.
func PeerCaps(c Comm, rank int) CapSet {
	if n, ok := c.(Negotiator); ok {
		return n.PeerCaps(rank)
	}
	return AllCaps
}
