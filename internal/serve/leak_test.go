package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// verifyNoLeaks snapshots the running goroutine count and registers a
// cleanup — running after the test's own cleanups, so after every Close —
// that polls until the count is back at the snapshot. Goroutines unwind
// asynchronously after Service.Close, hence the retry loop; if the count
// never recovers the surviving stacks are reported. Under -race (CI runs
// the whole suite with it) this pins the contract that no exit path
// strands an estimator goroutine or a blocked WaitFor reader.
func verifyNoLeaks(t *testing.T) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if runtime.NumGoroutine() <= baseline {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d at baseline, %d after cleanup; stacks:\n%s",
			baseline, runtime.NumGoroutine(), buf[:n])
	})
}

// TestCloseReturnsGoroutinesToBaseline drives the full lifecycle — open
// sessions, blocked waiters, inference — and asserts
// Service.Close unwinds every goroutine it or its readers started.
func TestCloseReturnsGoroutinesToBaseline(t *testing.T) {
	verifyNoLeaks(t)
	s, err := New(Config{Estimator: &stubEstimator{}, InputSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Readers blocked in WaitFor on a frame that is never submitted, with
	// a generous timeout: Close must wake them long before the deadline.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		if _, err := s.Fetch(fmt.Sprintf("l%d", i)); !errors.Is(err, ErrNoEstimate) {
			t.Fatalf("Fetch before any publish = %v, want ErrNoEstimate", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := s.WaitFor(1<<40, time.Minute); ok {
				t.Error("WaitFor on a never-submitted frame must fail")
			}
		}()
	}
	for i := 1; i <= 16; i++ {
		if _, _, err := s.Submit(frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.WaitFor(16, 5*time.Second); !ok {
		t.Fatal("estimates never published")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
