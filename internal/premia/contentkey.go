package premia

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
)

// ContentKey returns the problem's content address: a hex SHA-256 of the
// canonical encoding of (asset, model, option, method) plus every
// parameter in sorted key order, with values hashed by their exact IEEE
// 754 bit pattern. Two problems share a key if and only if they would
// compute the same thing, which makes the key safe to use as a cache
// identity for pricing results — the Monte Carlo seed halves ("seed",
// "seedhi") are ordinary parameters and therefore part of the address.
//
// The one exception is the "threads" parameter: it selects how many
// cores the multicore pricing kernel shards the path loop over, and the
// kernel's fixed shard decomposition makes results bit-identical across
// thread counts (see parallel.go), so it is excluded — a price computed
// on 8 threads is a valid cache hit for the same problem on 1.
//
// The encoding is appended into one buffer and hashed in one call; for
// any problem of ordinary size the buffer, the sorted key list and the
// digest all live on the stack and the returned string is the only
// allocation.
func (p *Problem) ContentKey() string {
	var (
		stack [512]byte
		names [24]string
	)
	buf := stack[:0]
	str := func(s string) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	str(p.Asset)
	str(p.Model)
	str(p.Option)
	str(p.Method)
	keys := names[:0]
	for k := range p.Params {
		if k != kernelThreadsKey {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		str(k)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Params[k]))
	}
	sum := sha256.Sum256(buf)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}
