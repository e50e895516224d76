package nsp

import (
	"fmt"
	"os"
)

// Save writes the object to path in the shared binary format. Because the
// file format equals the serialization format, the file content can later
// be re-read either as an object (Load) or as a raw Serial (SLoad).
func Save(path string, o Object) error {
	data, err := encodeStream(o)
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return fmt.Errorf("nsp: save %s: %w", path, err)
	}
	return nil
}

// Load reads an object previously written by Save.
func Load(path string) (Object, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("nsp: load %s: %w", path, err)
	}
	o, err := decodeStream(data)
	if err != nil {
		return nil, fmt.Errorf("nsp: load %s: %w", path, err)
	}
	return o, nil
}

// SLoad reads the file content directly into a Serial object without
// decoding it — the paper's `sload` primitive (Fig. 2). The Serial can be
// transmitted as-is and unserialized on the receiving side, skipping
// object construction and re-encoding on the sender.
func SLoad(path string) (*Serial, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("nsp: sload %s: %w", path, err)
	}
	return &Serial{Data: data}, nil
}

// SLoadBytes wraps already-read file bytes into a Serial, for transports
// (like the simulated NFS server) that obtained the content themselves.
func SLoadBytes(data []byte) *Serial {
	return &Serial{Data: data}
}

// FileSize returns the on-disk size of path, used by the benchmark to
// account for NFS transfer volumes.
func FileSize(path string) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("nsp: stat %s: %w", path, err)
	}
	return info.Size(), nil
}
