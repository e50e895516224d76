package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Collective operations built on the point-to-point primitives, in the
// spirit of the Nsp MPI toolbox exposing "mainly all MPI-2 functions".
// Every rank of the communicator must call the same collective with the
// same root for the operation to complete. The implementations use
// binomial trees where it matters, so depth grows as log₂(size).
//
// A reserved tag namespace (high values) keeps collective traffic from
// colliding with application tags.
const (
	tagBcast  = 1 << 20
	tagReduce = 1<<20 + 3
)

// vrank maps a rank into the rotated space where the root is 0.
func vrank(rank, root, size int) int { return (rank - root + size) % size }

// prank maps back from rotated space to physical ranks.
func prank(v, root, size int) int { return (v + root) % size }

// Bcast distributes data from root to every rank along a binomial tree.
// On the root, data is the payload to send; on other ranks its content is
// ignored and the received payload is returned. Every rank returns the
// broadcast bytes.
func Bcast(c Comm, data []byte, root int) ([]byte, error) {
	size := c.Size()
	if root < 0 || root >= size {
		return nil, fmt.Errorf("mpi: bcast root %d out of range", root)
	}
	v := vrank(c.Rank(), root, size)
	if v != 0 {
		// Receive from the parent: clear the lowest set bit.
		parent := v & (v - 1)
		got, _, err := c.Recv(prank(parent, root, size), tagBcast)
		if err != nil {
			return nil, err
		}
		data = got
	}
	// Forward to children: set bits above the lowest set bit of v.
	for bit := 1; bit < size; bit <<= 1 {
		if v&bit != 0 {
			break
		}
		child := v | bit
		if child < size {
			if err := c.Send(data, prank(child, root, size), tagBcast); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// ReduceOp combines two float64 values in Reduce.
type ReduceOp func(a, b float64) float64

// Predefined reduction operators.
var (
	// OpSum adds.
	OpSum ReduceOp = func(a, b float64) float64 { return a + b }
	// OpMax keeps the maximum.
	OpMax ReduceOp = math.Max
	// OpMin keeps the minimum.
	OpMin ReduceOp = math.Min
)

// Reduce element-wise combines each rank's vector with op along a
// binomial tree rooted at root. All vectors must have the same length;
// only the root's returned slice is meaningful (others get nil).
func Reduce(c Comm, vec []float64, op ReduceOp, root int) ([]float64, error) {
	size := c.Size()
	if root < 0 || root >= size {
		return nil, fmt.Errorf("mpi: reduce root %d out of range", root)
	}
	v := vrank(c.Rank(), root, size)
	acc := make([]float64, len(vec))
	copy(acc, vec)
	// Children send up the binomial tree: at each round, ranks with the
	// current bit set send to their parent and exit.
	for bit := 1; bit < size; bit <<= 1 {
		if v&bit != 0 {
			parent := v &^ bit
			if err := c.Send(encodeFloats(acc), prank(parent, root, size), tagReduce); err != nil {
				return nil, err
			}
			return nil, nil
		}
		child := v | bit
		if child < size {
			data, _, err := c.Recv(prank(child, root, size), tagReduce)
			if err != nil {
				return nil, err
			}
			other, err := decodeFloats(data)
			if err != nil {
				return nil, err
			}
			if len(other) != len(acc) {
				return nil, fmt.Errorf("mpi: reduce length mismatch: %d vs %d", len(other), len(acc))
			}
			for i := range acc {
				acc[i] = op(acc[i], other[i])
			}
		}
	}
	return acc, nil
}

func encodeFloats(vec []float64) []byte {
	out := make([]byte, 8*len(vec))
	for i, v := range vec {
		binary.BigEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

func decodeFloats(data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("mpi: float vector payload of %d bytes", len(data))
	}
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(data[8*i:]))
	}
	return out, nil
}
