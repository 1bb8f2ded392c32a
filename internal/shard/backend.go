package shard

import (
	"sync"
	"sync/atomic"

	"vvd/internal/wire"
)

// backend is one vvd-serve shard: a small pool of multiplexed wire
// connections, a per-shard in-flight bound, and the health state the
// ring consults when routing.
type backend struct {
	addr string

	// healthy gates routing. Starts true (a new backend gets traffic
	// immediately; the first failed calls flip it) and is owned by the
	// router's health loop plus the transport-failure path.
	healthy atomic.Bool
	fails   atomic.Int32 // consecutive failed health probes

	// inflight bounds concurrently-forwarded requests to this shard;
	// beyond it the router sheds with StatusOverloaded instead of
	// queueing, same policy as the wire server itself.
	inflight chan struct{}

	requests atomic.Uint64 // calls forwarded (incl. failures)
	errors   atomic.Uint64 // calls that returned a transport error
	sheds    atomic.Uint64 // calls shed by the in-flight bound

	mu     sync.Mutex
	conns  []*wire.Client // fixed slots, dialed lazily, redialed on death
	next   int            // round-robin slot cursor
	closed bool
}

func newBackend(addr string, inflight int) *backend {
	b := &backend{
		addr:     addr,
		inflight: make(chan struct{}, inflight),
		conns:    make([]*wire.Client, poolConns),
	}
	b.healthy.Store(true)
	return b
}

// client returns a live connection from the pool, dialing (or redialing
// a dead slot) as needed. Round-robin across slots spreads links over
// connections; the mutex only guards slot assignment, not calls.
func (b *backend) client() (*wire.Client, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, wire.Errf(wire.StatusUnavailable, "backend %s removed", b.addr)
	}
	slot := b.next
	b.next = (b.next + 1) % len(b.conns)
	c := b.conns[slot]
	if c != nil && c.Err() == nil {
		b.mu.Unlock()
		return c, nil
	}
	b.mu.Unlock()

	// Dial outside the lock; a slow backend must not stall other slots.
	nc, err := wire.Dial(b.addr, wire.ClientConfig{})
	if err != nil {
		return nil, wire.Errf(wire.StatusUnavailable, "backend %s unreachable: %v", b.addr, err)
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		nc.Close()
		return nil, wire.Errf(wire.StatusUnavailable, "backend %s removed", b.addr)
	}
	if old := b.conns[slot]; old != nil && old.Err() == nil {
		// Another goroutine redialed the slot first; use theirs.
		b.mu.Unlock()
		nc.Close()
		return old, nil
	}
	if old := b.conns[slot]; old != nil {
		old.Close()
	}
	b.conns[slot] = nc
	b.mu.Unlock()
	return nc, nil
}

// do forwards one call under the shard's in-flight bound.
func (b *backend) do(fn func(*wire.Client) error) error {
	select {
	case b.inflight <- struct{}{}:
	default:
		b.sheds.Add(1)
		return wire.Errf(wire.StatusOverloaded, "shard %s at max in-flight requests (%d)", b.addr, cap(b.inflight))
	}
	defer func() { <-b.inflight }()
	b.requests.Add(1)
	c, err := b.client()
	if err != nil {
		b.errors.Add(1)
		return err
	}
	err = fn(c)
	if err != nil && c.Err() != nil {
		// The connection died under the call: transport failure, not a
		// protocol verdict. Count it; the health loop decides membership.
		b.errors.Add(1)
		return wire.Errf(wire.StatusUnavailable, "backend %s connection lost: %v", b.addr, err)
	}
	return err
}

// close tears down the pool. In-flight calls fail with their
// connections.
func (b *backend) close() {
	b.mu.Lock()
	b.closed = true
	conns := b.conns
	b.conns = make([]*wire.Client, len(conns))
	b.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}
