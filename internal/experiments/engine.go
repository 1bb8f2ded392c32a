// Package experiments reproduces every table and figure of the paper's
// evaluation (§6) on the simulated testbed: the hypothesis tests (Fig. 5),
// the variant comparisons (Fig. 11), the overall PER/CER/MSE box plots
// (Figs. 12–14), the error-burst timeline (Fig. 15), the aging studies
// (Figs. 16–17) and the static tables (Tables 1–2), plus the ablations
// called out in DESIGN.md.
//
// The evaluation is organized around a fixed table of the 14 techniques'
// Estimator builders (see estimators.go) and a packet-major parallel
// engine: Evaluate walks each combination's test packets in order and fans
// the technique lanes of each packet out over a bounded worker pool, with
// model caches shared singleflight-style so one VVD training or Kalman fit
// serves every goroutine. Figs. 15–17 and the ablations score their
// estimators through the same lane loop, the only code here that decodes a
// packet. Parallel output is byte-identical to the sequential run.
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/estimate"
	"vvd/internal/kalman"
	"vvd/internal/metrics"
	"vvd/internal/phy"
)

// Params bundles the scale knobs of an evaluation run.
type Params struct {
	Campaign dataset.Config
	// Combos limits how many Table 2 set combinations are evaluated
	// (0 = every combination the campaign supports; the paper uses 15).
	Combos int
	// Train configures VVD training.
	Train core.TrainConfig
	// SkipPackets excludes the first packets of each test set from the
	// metrics so Kalman and the previous-estimate techniques have warmed up
	// (the paper skips 200 of ~1500; scale accordingly).
	SkipPackets int
	// Workers bounds the evaluation fan-out: Evaluate runs up to Workers
	// technique lanes concurrently. 0 selects runtime.GOMAXPROCS(0); 1
	// reproduces the sequential engine exactly (results are byte-identical
	// at any worker count).
	Workers int
	// Clock supplies wall time for the progress timings a cross-scenario
	// sweep records (ScenarioResult.GenSeconds/EvalSeconds). nil disables
	// timing — every timing reads zero — which keeps this package free of
	// wall-clock reads (the determinism invariant vvd-lint enforces).
	// CLI mains inject time.Now.
	Clock func() time.Time
}

// DefaultParams is the laptop-scale configuration used by the benchmarks;
// EXPERIMENTS.md records how it maps to the paper's full scale.
func DefaultParams() Params {
	cfg := dataset.DefaultConfig()
	cfg.Sets = 6
	cfg.PacketsPerSet = 90
	cfg.PSDULen = 64
	return Params{
		Campaign:    cfg,
		Combos:      3,
		Train:       core.DefaultTrainConfig(),
		SkipPackets: 10,
	}
}

// PaperParams is the full-scale configuration (15 sets, 127-byte PSDUs,
// every combination). Expect hours of CPU time.
func PaperParams() Params {
	cfg := dataset.DefaultConfig()
	cfg.Sets = 15
	cfg.PacketsPerSet = 1500
	cfg.PSDULen = 127
	train := core.DefaultTrainConfig()
	train.Arch = core.PaperArch()
	train.Epochs = 200
	train.LR = 1e-4
	return Params{
		Campaign:    cfg,
		Combos:      0,
		Train:       train,
		SkipPackets: 200,
	}
}

// Engine owns a generated campaign and caches trained models so multiple
// figures can share one (expensive) campaign and VVD training run. All
// methods that resolve models (VVDFor, KalmanFor) and Evaluate are safe
// for concurrent use; the ablation helpers that mutate receiver
// configuration are not and must run sequentially.
type Engine struct {
	P        Params
	Campaign *dataset.Campaign

	mu          sync.Mutex
	vvdCache    map[vvdKey]*vvdEntry
	kalmanCache map[kalmanKey]*kalmanEntry
}

type vvdKey struct {
	combo int
	lag   dataset.ImageLag
	arch  core.Arch
}

type kalmanKey struct {
	combo int
	order int
}

// vvdEntry and kalmanEntry are singleflight slots: the first goroutine to
// claim a key performs the (expensive) training or fit inside once; every
// other goroutine blocks on the same once and shares the outcome.
type vvdEntry struct {
	once sync.Once
	v    *core.VVD
	err  error
}

type kalmanEntry struct {
	once sync.Once
	k    *kalman.Estimator
	err  error
}

// NewEngine generates the campaign for the given parameters. Generation
// inherits the evaluation fan-out width unless the campaign config sets
// its own; the campaign content is identical either way.
func NewEngine(p Params) (*Engine, error) {
	if p.Campaign.Workers == 0 {
		p.Campaign.Workers = p.Workers
	}
	c, err := dataset.Generate(p.Campaign)
	if err != nil {
		return nil, err
	}
	return NewEngineFromCampaign(c, p), nil
}

// NewEngineFromCampaign wraps an already-materialized campaign (generated
// elsewhere or loaded from a campaign file). Params.Campaign is overridden
// by the campaign's own stored configuration.
func NewEngineFromCampaign(c *dataset.Campaign, p Params) *Engine {
	p.Campaign = c.Cfg
	return &Engine{
		P:           p,
		Campaign:    c,
		vvdCache:    map[vvdKey]*vvdEntry{},
		kalmanCache: map[kalmanKey]*kalmanEntry{},
	}
}

// NewEngineFromReader builds an engine from a streaming campaign reader
// (dataset.OpenCampaign): it resolves which Table 2 combinations the run
// evaluates from the stored set count and Params.Combos, then decodes only
// the sets those combinations reference, skipping the rest without
// decoding. With a combo limit this bounds memory to the sets actually
// evaluated; the reader is consumed either way.
func NewEngineFromReader(r *dataset.Reader, p Params) (*Engine, error) {
	combos := dataset.CombinationsFor(r.NumSets(), p.Combos)
	need := map[int]bool{}
	for _, cb := range combos {
		for _, id := range cb.Training {
			need[id] = true
		}
		need[cb.Val] = true
		need[cb.Test] = true
	}
	c, err := r.ReadSets(func(id int) bool { return need[id] })
	if err != nil {
		return nil, err
	}
	return NewEngineFromCampaign(c, p), nil
}

// Combos returns the Table 2 combinations this run evaluates.
func (e *Engine) Combos() []dataset.Combination {
	return dataset.CombinationsFor(len(e.Campaign.Sets), e.P.Combos)
}

// workers resolves the configured fan-out width.
func (e *Engine) workers() int {
	if e.P.Workers > 0 {
		return e.P.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// VVDFor returns (training on demand) the VVD variant for a combination.
// Concurrent callers of the same key share a single training run. The
// returned model is the cached instance: its Estimate is safe for
// concurrent use, but a caller that drives the float64 Net itself (its
// forward caches are per-instance) must Clone it.
func (e *Engine) VVDFor(cb dataset.Combination, lag dataset.ImageLag) (*core.VVD, error) {
	key := vvdKey{combo: cb.Number, lag: lag, arch: e.P.Train.Arch}
	e.mu.Lock()
	ent, ok := e.vvdCache[key]
	if !ok {
		ent = &vvdEntry{}
		e.vvdCache[key] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		v, _, err := core.Train(e.Campaign, cb, lag, e.P.Train)
		if err != nil {
			ent.err = fmt.Errorf("experiments: training VVD lag %d combo %d: %w", lag, cb.Number, err)
			return
		}
		ent.v = v
	})
	return ent.v, ent.err
}

// KalmanFor returns the AR(p) Kalman estimator for a combination, fitted on
// demand on the concatenated training-set aligned estimates. The fit is
// shared singleflight-style; every call returns an independent clone in its
// pristine post-fit state, so callers can advance their filters freely
// without corrupting each other (the cached instance is never advanced).
func (e *Engine) KalmanFor(cb dataset.Combination, order int) (*kalman.Estimator, error) {
	key := kalmanKey{combo: cb.Number, order: order}
	e.mu.Lock()
	ent, ok := e.kalmanCache[key]
	if !ok {
		ent = &kalmanEntry{}
		e.kalmanCache[key] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		var series [][]complex128
		for _, p := range e.Campaign.TrainingPackets(cb) {
			series = append(series, p.PerfectAligned)
		}
		k, err := kalman.Fit(series, order, 1e-9)
		if err != nil {
			ent.err = fmt.Errorf("experiments: kalman AR(%d) combo %d: %w", order, cb.Number, err)
			return
		}
		ent.k = k
	})
	if ent.err != nil {
		return nil, ent.err
	}
	return ent.k.Clone(), nil
}

// ComboResult is the per-technique outcome on one set combination.
type ComboResult struct {
	Combo    dataset.Combination
	Counters map[string]*metrics.Counter
	// ok holds, for every lane by name and every test packet k, whether
	// packet k counted and decoded; packets in the skip window, skipped by
	// the estimator or unavailable read false.
	ok map[string][]bool
}

// lane is one technique's pass over a combination's test packets: its
// private estimator, its counter and its per-packet decode record.
type lane struct {
	est      Estimator
	observer Observer
	scoreMSE bool
	c        metrics.Counter
	ok       []bool
}

// newLane wraps an estimator in a lane with an empty counter and an empty
// record of n packets.
func newLane(est Estimator, n int) *lane {
	l := &lane{est: est, scoreMSE: true, ok: make([]bool, n)}
	l.observer, _ = est.(Observer)
	if ex, ok := est.(MSEExempt); ok && ex.MSEExempt() {
		l.scoreMSE = false
	}
	return l
}

// reception is one test packet's decode-ready reception. The first lane
// that decodes the packet regenerates and CFO-corrects it; the others
// share it read-only, and it is dropped with the packet.
type reception struct {
	once    sync.Once
	ppdu    *phy.PPDU
	txChips []byte
	rxc     []complex128 // CFO-corrected received waveform
	err     error
}

// prepare regenerates pkt's reception into rec on first use.
func (e *Engine) prepare(rec *reception, pkt *dataset.Packet) error {
	rec.once.Do(func() {
		ppdu, txChips, r, err := e.Campaign.ReceptionPacket(pkt)
		if err != nil {
			rec.err = err
			return
		}
		rec.ppdu, rec.txChips = ppdu, txChips
		rec.rxc, _ = e.Campaign.Receiver.CorrectCFOInPlace(r.Waveform)
	})
	return rec.err
}

// step runs one lane over test packet k: estimate, then decode and score
// if the packet is past the skip window, then observe.
func (e *Engine) step(l *lane, k, skip int, pkt *dataset.Packet, rec *reception) error {
	// Estimate on every packet — stateful estimators advance through the
	// warm-up window exactly as in the paper.
	h, av, err := l.est.Estimate(k, pkt)
	if err != nil {
		return err
	}
	if k >= skip {
		switch av {
		case Unavailable:
			// Technique unavailable (e.g. preamble missed): the packet is
			// assumed erroneous; no chips or MSE counted.
			l.c.AddUnavailable()
		case Available:
			if err := e.prepare(rec, pkt); err != nil {
				return err
			}
			dec := e.Campaign.Receiver.Decode(rec.rxc, rec.ppdu, rec.txChips, h)
			l.c.AddPacket(dec.PacketOK, dec.ChipErrors, dec.PSDUChips)
			l.ok[k] = dec.PacketOK
			if h != nil && l.scoreMSE {
				aligned := estimate.AlignPhase(h, pkt.Perfect)
				l.c.AddMSE(metrics.SqError(aligned, pkt.Perfect), len(pkt.Perfect))
			}
		}
	}
	// Filters absorb the perfect estimate of this packet before predicting
	// the next one (paper appendix).
	if l.observer != nil {
		return l.observer.Observe(k, pkt)
	}
	return nil
}

// workPool runs batches of calls on a fixed set of goroutines.
type workPool chan func()

// startWorkPool starts the pool's goroutines; stop closes the pool and
// waits for them to exit.
func startWorkPool(workers int) (p workPool, stop func()) {
	p = make(workPool)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range p {
				f()
			}
		}()
	}
	return p, func() {
		close(p)
		wg.Wait()
	}
}

// each runs f(0), …, f(n-1) on the pool and waits for all of them.
func (p workPool) each(n int, f func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		p <- func() {
			defer wg.Done()
			f(i)
		}
	}
	wg.Wait()
}

// firstError returns the first non-nil error in errs.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// scoreCombo is the packet-major evaluation loop of one combination, with
// one lane per estimator. It walks the test packets in order: at each
// packet every lane estimates, decodes and observes, the lanes fanning out
// over the pool, and the packet's reception — regenerated only if some
// lane decodes it — is dropped before the next packet. At most one
// reception per combination is resident. The first skip packets are not
// decoded. Each lane sees its packets in order whatever the pool width, so
// results do not depend on it. Counters and records are keyed by estimator
// name, which must be unique. It gives up between packets once stop
// reports true.
func (e *Engine) scoreCombo(pool workPool, cb dataset.Combination, ests []Estimator, skip int, stop *atomic.Bool) (*ComboResult, error) {
	test := e.Campaign.TestPackets(cb)
	lanes := make([]*lane, len(ests))
	for i, est := range ests {
		lanes[i] = newLane(est, len(test))
	}
	errs := make([]error, len(lanes))
	for k, pkt := range test {
		if stop.Load() {
			return nil, nil
		}
		rec := &reception{}
		pool.each(len(lanes), func(i int) {
			errs[i] = e.step(lanes[i], k, skip, pkt, rec)
		})
		if err := firstError(errs); err != nil {
			return nil, err
		}
	}
	res := &ComboResult{Combo: cb, Counters: map[string]*metrics.Counter{}, ok: map[string][]bool{}}
	for _, l := range lanes {
		res.ok[l.est.Name()] = l.ok
		// A technique that never produced a countable packet (e.g. Skip on
		// every recorded packet) is omitted rather than reported as a
		// zero-error counter.
		if l.c.Packets > 0 {
			res.Counters[l.est.Name()] = &l.c
		}
	}
	return res, nil
}

// score runs estimators through the lane loop over one combination's test
// set, counting packets from skip on, on a pool of Params.Workers
// goroutines. Figs. 15–17, ablations and tests score estimators outside
// the technique table this way.
func (e *Engine) score(cb dataset.Combination, skip int, ests ...Estimator) (*ComboResult, error) {
	pool, stopPool := startWorkPool(e.workers())
	defer stopPool()
	return e.scoreCombo(pool, cb, ests, skip, new(atomic.Bool))
}

// evaluateCombo builds the named techniques' estimators for a combination
// from the builders table, the builds (which may train models) fanning out
// over the pool, and scores them with scoreCombo. On an error it sets stop.
func (e *Engine) evaluateCombo(pool workPool, cb dataset.Combination, techniques []string, stop *atomic.Bool) (*ComboResult, error) {
	ests := make([]Estimator, len(techniques))
	errs := make([]error, len(techniques))
	pool.each(len(techniques), func(i int) {
		ests[i], errs[i] = builders[techniques[i]](e, cb)
	})
	err := firstError(errs)
	var res *ComboResult
	if err == nil {
		res, err = e.scoreCombo(pool, cb, ests, e.P.SkipPackets, stop)
	}
	if err != nil {
		stop.Store(true)
		return nil, err
	}
	return res, nil
}

// checkTechniques resolves nil to core.AllTechniques and catches typos
// before any training or decoding starts.
func checkTechniques(techniques []string) ([]string, error) {
	if techniques == nil {
		techniques = core.AllTechniques
	}
	for _, name := range techniques {
		if _, ok := builders[name]; !ok {
			return nil, fmt.Errorf("experiments: unknown technique %q (known: %v)", name, core.AllTechniques)
		}
	}
	return techniques, nil
}

// Evaluate runs the decode comparison over every selected combination.
// The combinations run concurrently, each walking its test packets in
// order, and the technique lanes of each packet share a pool of
// Params.Workers goroutines. Result ordering follows Combos(), and the
// counters are byte-identical to a Workers=1 run: each lane owns its
// estimator and sees its packets in order, receptions are shared
// read-only, and model caches are singleflight-guarded.
func (e *Engine) Evaluate(techniques []string) ([]*ComboResult, error) {
	return e.evaluate(e.Combos(), techniques)
}

func (e *Engine) evaluate(combos []dataset.Combination, techniques []string) ([]*ComboResult, error) {
	techniques, err := checkTechniques(techniques)
	if err != nil {
		return nil, err
	}
	for _, cb := range combos {
		if err := cb.Validate(e.Campaign); err != nil {
			return nil, err
		}
	}
	pool, stopPool := startWorkPool(e.workers())
	defer stopPool()
	out := make([]*ComboResult, len(combos))
	errs := make([]error, len(combos))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i, cb := range combos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = e.evaluateCombo(pool, cb, techniques, &stop)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// BoxOver collects one metric over combo results into box statistics per
// technique. metric is "per", "cer" or "mse".
func BoxOver(results []*ComboResult, metric string) (map[string]metrics.BoxStats, error) {
	values := map[string][]float64{}
	for _, r := range results {
		for name, c := range r.Counters {
			switch metric {
			case "per":
				values[name] = append(values[name], c.PER())
			case "cer":
				values[name] = append(values[name], c.CER())
			case "mse":
				if c.HasMSE() {
					values[name] = append(values[name], c.MSE())
				}
			default:
				return nil, fmt.Errorf("experiments: unknown metric %q", metric)
			}
		}
	}
	out := map[string]metrics.BoxStats{}
	for name, v := range values {
		s, err := metrics.Box(v)
		if err != nil {
			return nil, err
		}
		out[name] = s
	}
	return out, nil
}
