package experiments

import (
	"fmt"
	"sort"
	"sync"

	"vvd/internal/dataset"
)

// Availability describes whether a technique can produce an estimate for a
// given test packet, mirroring the three outcomes of the paper's decode
// comparison (§5–6). It is the second return of [Estimator.Estimate] and
// decides how the engine scores the packet: decode it, count it as lost,
// or leave it out entirely.
type Availability int

const (
	// Available: the technique produced an estimate (nil means standard
	// decoding, i.e. no equalization).
	Available Availability = iota
	// Unavailable: the technique exists but cannot estimate this packet
	// (e.g. the preamble was missed); the packet counts as erroneous.
	Unavailable
	// Skip: the technique is not applicable yet (e.g. no previous packet,
	// Kalman filter not warmed up); the packet is not counted at all.
	Skip
)

// String returns the outcome name.
func (a Availability) String() string {
	switch a {
	case Available:
		return "Available"
	case Unavailable:
		return "Unavailable"
	case Skip:
		return "Skip"
	default:
		return fmt.Sprintf("Availability(%d)", int(a))
	}
}

// Estimator is one channel-estimation technique evaluated over a
// combination's test set. Estimate is called for every packet in order,
// including the warm-up window, so stateful estimators (Kalman) advance
// exactly as in the paper. Implementations are built per evaluation run and
// must not share mutable state — the parallel engine runs one Estimator per
// (combination × technique) lane, and the lanes of one packet run
// concurrently. Calls on one instance never overlap, though successive
// packets may reach it on different goroutines.
type Estimator interface {
	// Name returns the technique label exactly as the paper uses it.
	Name() string
	// Estimate returns the channel estimate for test packet k.
	Estimate(k int, pkt *dataset.Packet) ([]complex128, Availability, error)
}

// Observer is an optional refinement of [Estimator]: implementations
// absorb per-packet feedback after the packet has been decoded — the
// Kalman filters update on the perfect estimate of the just-received
// packet (paper appendix). The engine calls Observe exactly once per test
// packet, after Estimate, in packet order.
type Observer interface {
	Observe(k int, pkt *dataset.Packet) error
}

// MSEExempt is an optional refinement of [Estimator]: implementations
// returning true are excluded from MSE scoring against the ground truth.
// The ground-truth technique itself is the canonical case (its error
// against itself is zero by construction and would distort Fig. 14);
// oracles added through [Register] usually want this too.
type MSEExempt interface {
	MSEExempt() bool
}

// Builder constructs a fresh Estimator bound to an engine and combination.
// Builders run under the engine's model caches, so expensive artifacts (VVD
// training, Kalman fits) are shared across concurrent builds.
type Builder func(e *Engine, cb dataset.Combination) (Estimator, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Builder{}
)

// Register adds a technique to the global registry. Registering an existing
// name replaces the previous builder (last registration wins), so tests and
// extensions can override built-ins. Adding a new technique to the
// evaluation is one Register call — the engine never needs to change.
func Register(name string, b Builder) {
	if name == "" || b == nil {
		panic("experiments: Register needs a name and a builder")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = b
}

// Lookup resolves a technique name to its builder.
func Lookup(name string) (Builder, error) {
	registryMu.RLock()
	b, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("experiments: unknown technique %q (registered: %v)", name, RegisteredTechniques())
	}
	return b, nil
}

// RegisteredTechniques lists every registered technique name, sorted.
func RegisteredTechniques() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
