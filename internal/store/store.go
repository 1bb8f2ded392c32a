// Package store is the artifact persistence layer: the atomic
// write-to-temp → fsync → rename helper every binary routes its output
// files through (atomic.go), and one durable named-blob store, the
// log-structured KV (wal.go) — append-only WAL segments of
// length-prefixed CRC-32C batches, with crash recovery that truncates
// the torn tail and replays every committed batch. One process owns a
// KV directory at a time (an flock on the directory itself).
//
// The model registry (store/registry) runs on the KV. The measured cost
// of a committed put is pinned in EXPERIMENTS.md ("Storage backends").
package store

import (
	"errors"
	"fmt"
	"strings"
)

// ErrNotFound is returned by Get for a key with no value.
var ErrNotFound = errors.New("store: key not found")

// maxKeyLen bounds key length (WAL replay validates stored key lengths
// against it before allocating).
const maxKeyLen = 4096

// ValidateKey rejects keys the store does not accept: empty, oversized,
// rooted or dot-relative paths, control bytes. Keys are slash-separated
// paths ("models/ab12…", "tags/vvd-current"), and the same rules keep a
// key usable as a relative file path, so a hostile key ("../../etc/x")
// can never name anything outside a directory it is joined to.
func ValidateKey(key string) error {
	if key == "" {
		return errors.New("store: empty key")
	}
	if len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d exceeds %d", len(key), maxKeyLen)
	}
	if strings.HasPrefix(key, "/") || strings.HasSuffix(key, "/") {
		return fmt.Errorf("store: key %q must not start or end with '/'", key)
	}
	for _, seg := range strings.Split(key, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return fmt.Errorf("store: key %q has an empty or dot path segment", key)
		}
	}
	for i := 0; i < len(key); i++ {
		if key[i] < 0x20 || key[i] == 0x7f || key[i] == '\\' {
			return fmt.Errorf("store: key %q contains a forbidden byte %#x", key, key[i])
		}
	}
	return nil
}
