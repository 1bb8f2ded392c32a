package shard

import (
	"fmt"
	"testing"
)

func testBackends(addrs ...string) []*backend {
	out := make([]*backend, len(addrs))
	for i, a := range addrs {
		out[i] = newBackend(a, 1)
	}
	return out
}

func TestRingDeterministic(t *testing.T) {
	a := buildRing(testBackends("h1:1", "h2:1", "h3:1"))
	b := buildRing(testBackends("h3:1", "h1:1", "h2:1")) // different order, same set
	for i := 0; i < 1000; i++ {
		link := fmt.Sprintf("link-%d", i)
		if a.owner(link).addr != b.owner(link).addr {
			t.Fatalf("link %q: owner %s vs %s for the same membership", link, a.owner(link).addr, b.owner(link).addr)
		}
	}
}

func TestRingSpreadsLoad(t *testing.T) {
	backends := testBackends("h1:1", "h2:1", "h3:1", "h4:1")
	r := buildRing(backends)
	counts := map[string]int{}
	const links = 4000
	for i := 0; i < links; i++ {
		counts[r.owner(fmt.Sprintf("link-%d", i)).addr]++
	}
	// 64 vnodes: shares land near 25% ±, never collapse onto one shard.
	for _, b := range backends {
		share := float64(counts[b.addr]) / links
		if share < 0.10 || share > 0.45 {
			t.Errorf("backend %s owns %.1f%% of links (counts %v)", b.addr, 100*share, counts)
		}
	}
}

func TestRingRemapBounds(t *testing.T) {
	full := testBackends("h1:1", "h2:1", "h3:1")
	before := buildRing(full)
	after := buildRing(full[:2]) // h3 leaves

	const links = 3000
	var moved, ownedByGone int
	for i := 0; i < links; i++ {
		link := fmt.Sprintf("link-%d", i)
		oldOwner := before.owner(link).addr
		newOwner := after.owner(link).addr
		if oldOwner == "h3:1" {
			ownedByGone++
			continue // must move somewhere; that is the point
		}
		if oldOwner != newOwner {
			moved++
		}
	}
	// Consistent hashing's contract: links not owned by the departed
	// backend keep their assignment exactly.
	if moved != 0 {
		t.Errorf("%d links not owned by the removed backend still remapped", moved)
	}
	if ownedByGone == 0 || ownedByGone > links/2 {
		t.Errorf("removed backend owned %d/%d links, expected roughly a third", ownedByGone, links)
	}
}

func TestRingWalkVisitsEachBackendOnce(t *testing.T) {
	r := buildRing(testBackends("h1:1", "h2:1", "h3:1"))
	var order []string
	r.walk("some-link", func(b *backend) bool {
		order = append(order, b.addr)
		return false // keep walking
	})
	if len(order) != 3 {
		t.Fatalf("walk visited %v, want all 3 backends exactly once", order)
	}
	seen := map[string]bool{}
	for _, a := range order {
		if seen[a] {
			t.Fatalf("walk visited %s twice: %v", a, order)
		}
		seen[a] = true
	}
	if order[0] != r.owner("some-link").addr {
		t.Fatalf("walk started at %s, owner is %s", order[0], r.owner("some-link").addr)
	}
}

func TestRingEmpty(t *testing.T) {
	r := buildRing(nil)
	if r.owner("x") != nil {
		t.Fatal("empty ring returned an owner")
	}
	called := false
	r.walk("x", func(*backend) bool { called = true; return true })
	if called {
		t.Fatal("empty ring walked somewhere")
	}
}
