package main

import (
	"slices"
	"testing"
)

// TestAgingOffsets pins the Figs. 16–17 ages to the test-set size: short
// sets drop the ages they cannot hold, long sets gain 100 and 200.
func TestAgingOffsets(t *testing.T) {
	for _, tc := range []struct {
		packets int
		want    []int
	}{
		{40, []int{0, 1, 5, 10, 20}},
		{64, []int{0, 1, 5, 10, 20, 50}},
		{300, []int{0, 1, 5, 10, 20, 50, 100, 200}},
	} {
		if got := agingOffsets(tc.packets); !slices.Equal(got, tc.want) {
			t.Errorf("agingOffsets(%d) = %v, want %v", tc.packets, got, tc.want)
		}
	}
}
