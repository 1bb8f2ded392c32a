// Package shard is the serving cluster's routing tier: a consistent-hash
// router that spreads link sessions across N vvd-serve backends reached
// over the binary wire protocol (internal/wire).
//
// Placement is by link id — every frame and fetch for a link lands on
// the same backend, so that backend's freshest-wins estimate stream is
// the link's estimate stream; backends share nothing. The hash ring uses
// virtual nodes (64 per backend) so load spreads evenly and
// adding or removing one backend remaps only the ~1/N of links it owns,
// never reshuffling the rest of the cluster — the property that makes
// hot add/remove cheap while cameras keep streaming.
package shard

import (
	"fmt"
	"sort"
)

// hash64 positions a key on the circle: 64-bit FNV-1a — tiny,
// allocation-free, and stable across processes (the ring must hash
// identically in every router) — followed by a finalizer. Raw FNV-1a
// output correlates strongly for keys that differ only in a trailing
// counter ("addr#0", "addr#1", …), which clumps a backend's virtual
// nodes onto one arc; the avalanche mix spreads them uniformly.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	// Murmur3/splitmix-style finalizer.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ringEntry is one virtual node: a point on the hash circle owned by a
// backend.
type ringEntry struct {
	hash uint64
	b    *backend
}

// ring is an immutable consistent-hash ring. Routers swap whole rings
// on membership change (copy-on-write), so lookups never lock.
type ring struct {
	entries []ringEntry // sorted by hash
}

// buildRing places vnodes virtual nodes per backend on the circle.
func buildRing(backends []*backend) *ring {
	entries := make([]ringEntry, 0, len(backends)*vnodes)
	for _, b := range backends {
		for v := 0; v < vnodes; v++ {
			entries = append(entries, ringEntry{hash: hash64(fmt.Sprintf("%s#%d", b.addr, v)), b: b})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].hash != entries[j].hash {
			return entries[i].hash < entries[j].hash
		}
		// Hash ties (astronomically rare) break by address so every
		// router builds the identical ring.
		return entries[i].b.addr < entries[j].b.addr
	})
	return &ring{entries: entries}
}

// owner returns the backend owning a link: the first virtual node at or
// clockwise of the link's hash.
func (r *ring) owner(link string) *backend {
	if len(r.entries) == 0 {
		return nil
	}
	h := hash64(link)
	i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].hash >= h })
	if i == len(r.entries) {
		i = 0
	}
	return r.entries[i].b
}

// walk visits the distinct backends clockwise from a link's position —
// the owner first, then each successive failover candidate — until the
// visit callback returns true or every backend has been offered.
func (r *ring) walk(link string, visit func(*backend) bool) {
	if len(r.entries) == 0 {
		return
	}
	h := hash64(link)
	start := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].hash >= h })
	seen := make(map[*backend]bool)
	for k := 0; k < len(r.entries); k++ {
		e := r.entries[(start+k)%len(r.entries)]
		if seen[e.b] {
			continue
		}
		seen[e.b] = true
		if visit(e.b) {
			return
		}
	}
}
