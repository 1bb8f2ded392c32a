package serve

import (
	"sort"
	"sync/atomic"
	"time"

	"vvd/internal/metrics"
)

// servedAgeWindow is the number of recent served-estimate ages kept for
// the Metrics percentile snapshot. A power of two so the ring index is a
// mask. ~4k samples is a fraction of a second of traffic at cluster rates
// — enough for a stable tail estimate, small enough to sort on demand.
const servedAgeWindow = 4096

// ageSampler is a lock-free ring of the most recent served-estimate ages.
// Writers (every Latest/Next read on every link) pay one atomic add and
// one atomic store; readers (Metrics) copy the ring and sort. A snapshot
// taken concurrently with writes may mix samples from both sides of the
// copy instant — fine for a statistic, and no value is ever torn.
type ageSampler struct {
	n     atomic.Uint64
	slots [servedAgeWindow]atomic.Int64
}

func (a *ageSampler) record(d time.Duration) {
	i := a.n.Add(1) - 1
	a.slots[i&(servedAgeWindow-1)].Store(int64(d))
}

// percentiles returns the p50 and p99 of the sampled ages, interpolated
// linearly (metrics.Quantile); zeros before the first served estimate.
func (a *ageSampler) percentiles() (p50, p99 time.Duration) {
	total := a.n.Load()
	k := int(min(total, servedAgeWindow))
	if k == 0 {
		return 0, 0
	}
	sample := make([]float64, k)
	for i := range sample {
		sample[i] = float64(a.slots[i].Load())
	}
	sort.Float64s(sample)
	return time.Duration(metrics.Quantile(sample, 0.50)), time.Duration(metrics.Quantile(sample, 0.99))
}
