// Package metrics implements the paper's comparison metrics (§5.5): packet
// error rate, chip error rate, mean squared error against the perfect
// channel estimation (Eq. 9), and the box-plot statistics used to report
// results over the fifteen set combinations.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter accumulates packet and chip outcomes for one technique on one
// test set.
type Counter struct {
	Packets    int
	PacketErrs int
	Chips      int
	ChipErrs   int
	// Unavail counts the packets the technique could produce no estimate
	// for at all (e.g. a missed preamble); they are scored as erroneous and
	// also tracked here so availability can be reported per scenario.
	Unavail int

	mseSum float64
	mseN   int
}

// AddPacket records one decoded packet.
func (c *Counter) AddPacket(ok bool, chipErrs, chips int) {
	c.Packets++
	if !ok {
		c.PacketErrs++
	}
	c.Chips += chips
	c.ChipErrs += chipErrs
}

// AddUnavailable records a packet the technique could not estimate: it
// counts as an erroneous packet (no chips decoded) and against
// availability.
func (c *Counter) AddUnavailable() {
	c.AddPacket(false, 0, 0)
	c.Unavail++
}

// Availability is the fraction of counted packets the technique produced an
// estimate for (1 when nothing was ever unavailable).
func (c *Counter) Availability() float64 {
	if c.Packets == 0 {
		return 0
	}
	return 1 - float64(c.Unavail)/float64(c.Packets)
}

// AddMSE records the squared estimation error of one packet: Σ_l |h_l −
// ĥ_l|² with n taps (Eq. 9 accumulates over packets and taps).
func (c *Counter) AddMSE(sqErr float64, taps int) {
	c.mseSum += sqErr
	c.mseN += taps
}

// PER returns the packet error rate.
func (c *Counter) PER() float64 {
	if c.Packets == 0 {
		return 0
	}
	return float64(c.PacketErrs) / float64(c.Packets)
}

// CER returns the chip error rate.
func (c *Counter) CER() float64 {
	if c.Chips == 0 {
		return 0
	}
	return float64(c.ChipErrs) / float64(c.Chips)
}

// MSE returns the Eq. 9 mean squared error (0 when nothing was recorded).
func (c *Counter) MSE() float64 {
	if c.mseN == 0 {
		return 0
	}
	return c.mseSum / float64(c.mseN)
}

// HasMSE reports whether any estimation error was recorded (preamble-based
// estimation records none when detection fails on every packet).
func (c *Counter) HasMSE() bool { return c.mseN > 0 }

// SqError returns Σ|a−b|² over min(len) taps — the Eq. 9 inner sum.
func SqError(a, b []complex128) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += real(d)*real(d) + imag(d)*imag(d)
	}
	return s
}

// BoxStats summarizes a sample the way the paper's box plots do.
type BoxStats struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
}

// Box computes box-plot statistics; it errors on empty input.
func Box(values []float64) (BoxStats, error) {
	if len(values) == 0 {
		return BoxStats{}, errors.New("metrics: Box of empty sample")
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	var sum float64
	for _, x := range v {
		sum += x
	}
	return BoxStats{
		N:      len(v),
		Min:    v[0],
		Q1:     Quantile(v, 0.25),
		Median: Quantile(v, 0.5),
		Q3:     Quantile(v, 0.75),
		Max:    v[len(v)-1],
		Mean:   sum / float64(len(v)),
	}, nil
}

// Quantile is the q-quantile (0 ≤ q ≤ 1) of a non-empty ascending
// sample, interpolated linearly between the two nearest ranks. Box
// plots, the served-estimate age percentiles and vvd-load's percentiles
// all use it.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Table renders technique → box statistics as an aligned text table,
// ordered by the given technique list.
func Table(title string, order []string, stats map[string]BoxStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-28s %10s %10s %10s %10s %10s %10s\n",
		"technique", "min", "q1", "median", "q3", "max", "mean")
	for _, name := range order {
		s, ok := stats[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-28s %10.3e %10.3e %10.3e %10.3e %10.3e %10.3e\n",
			name, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
	}
	return b.String()
}
