// Package experiments reproduces every table and figure of the paper's
// evaluation (§6) on the simulated testbed: the hypothesis tests (Fig. 5),
// the variant comparisons (Fig. 11), the overall PER/CER/MSE box plots
// (Figs. 12–14), the error-burst timeline (Fig. 15), the aging studies
// (Figs. 16–17) and the static tables (Tables 1–2), plus the ablations
// called out in DESIGN.md.
//
// The evaluation is organized around a pluggable Estimator registry (see
// registry.go) and a parallel engine: Evaluate fans out over (combination ×
// technique) tasks through a bounded worker pool, with model caches shared
// singleflight-style so one VVD training or Kalman fit serves every
// goroutine. Parallel output is byte-identical to the sequential run.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
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
	// (combination × technique) tasks concurrently. 0 selects
	// runtime.GOMAXPROCS(0); 1 reproduces the sequential engine exactly
	// (results are byte-identical at any worker count).
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
// methods that resolve models (VVDFor, KalmanFor) and the evaluation entry
// points (Evaluate, EvaluateCombo) are safe for concurrent use; the
// ablation helpers that mutate receiver configuration are not and must run
// sequentially.
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
// returned model is the cached instance: callers that run inference
// concurrently must Clone it (network forward caches are per-instance).
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
}

// Techniques returns the evaluated technique names in stable (sorted)
// order for reports.
func (r *ComboResult) Techniques() []string {
	out := make([]string, 0, len(r.Counters))
	for name := range r.Counters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// comboRun shares per-combination state between the technique tasks of one
// evaluation: the test packets and the regenerated receptions. Receptions
// are prepared lazily and exactly once — whichever technique task reaches a
// packet first pays the regeneration, the rest reuse it.
type comboRun struct {
	e    *Engine
	cb   dataset.Combination
	test []*dataset.Packet
	prep []preparedPacket
	// pending counts this combination's unfinished technique tasks; the
	// last one to finish releases the prepared waveforms (at paper scale
	// they are hundreds of MB per combination).
	pending atomic.Int32
}

// preparedPacket is one packet's decode-ready reception.
type preparedPacket struct {
	once sync.Once
	// refs counts the technique tasks that have not yet passed this
	// packet; the last one to pass releases the waveform. With Workers ≥
	// technique count, memory is bounded by the pace spread between
	// tasks; with fewer workers, up to one combination's prepared test
	// set stays resident (~0.8 GB at paper scale) — the price of
	// regenerating each reception once instead of once per technique.
	refs    atomic.Int32
	ppdu    *phy.PPDU
	txChips []byte
	rxc     []complex128 // CFO-corrected received waveform
	err     error
}

// newComboRun prepares shared state for `tasks` technique tasks over one
// combination.
func newComboRun(e *Engine, cb dataset.Combination, tasks int) *comboRun {
	test := e.Campaign.TestPackets(cb)
	run := &comboRun{e: e, cb: cb, test: test, prep: make([]preparedPacket, len(test))}
	run.pending.Store(int32(tasks))
	for k := range run.prep {
		run.prep[k].refs.Store(int32(tasks))
	}
	return run
}

// passed marks one task done with packet k, releasing the reception once
// every task has moved past it.
func (r *comboRun) passed(k int) {
	if r.prep[k].refs.Add(-1) == 0 {
		p := &r.prep[k]
		p.ppdu, p.txChips, p.rxc = nil, nil, nil
	}
}

// prepared returns packet k's reception, regenerating it on first use.
func (r *comboRun) prepared(k int) (*preparedPacket, error) {
	p := &r.prep[k]
	p.once.Do(func() {
		ppdu, txChips, rec, err := r.e.Campaign.ReceptionPacket(r.test[k])
		if err != nil {
			p.err = err
			return
		}
		rxc, _ := r.e.Campaign.Receiver.CorrectCFO(rec.Waveform)
		p.ppdu, p.txChips, p.rxc = ppdu, txChips, rxc
	})
	return p, p.err
}

// evaluateTechnique runs one technique over the combination's full test
// sequence and returns its counter. This is the unit of parallelism: the
// estimator instance is private to the call, all shared inputs are
// read-only or singleflight-guarded.
func (e *Engine) evaluateTechnique(run *comboRun, name string) (*metrics.Counter, error) {
	build, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	est, err := build(e, run.cb)
	if err != nil {
		return nil, err
	}
	observer, _ := est.(Observer)
	scoreMSE := true
	if ex, ok := est.(MSEExempt); ok && ex.MSEExempt() {
		scoreMSE = false
	}
	rx := e.Campaign.Receiver
	c := &metrics.Counter{}
	for k, pkt := range run.test {
		// Estimate on every packet — stateful estimators advance through
		// the warm-up window exactly as in the paper.
		h, av, err := est.Estimate(k, pkt)
		if err != nil {
			return nil, err
		}
		if k >= e.P.SkipPackets {
			switch av {
			case Unavailable:
				// Technique unavailable (e.g. preamble missed): the packet
				// is assumed erroneous; no chips or MSE counted.
				c.AddUnavailable()
			case Available:
				pp, err := run.prepared(k)
				if err != nil {
					return nil, err
				}
				dec := rx.Decode(pp.rxc, pp.ppdu, pp.txChips, h)
				c.AddPacket(dec.PacketOK, dec.ChipErrors, dec.PSDUChips)
				if h != nil && scoreMSE {
					aligned := estimate.AlignPhase(h, pkt.Perfect)
					c.AddMSE(metrics.SqError(aligned, pkt.Perfect), len(pkt.Perfect))
				}
			}
		}
		// Filters absorb the perfect estimate of this packet before
		// predicting the next one (paper appendix).
		if observer != nil {
			if err := observer.Observe(k, pkt); err != nil {
				return nil, err
			}
		}
		run.passed(k)
	}
	return c, nil
}

// EvaluateCombo runs the full decode comparison on one combination's test
// set for the requested techniques (nil = core.AllTechniques). Every
// technique resolves through the registry; the techniques run sequentially
// within this call — use Evaluate for the parallel fan-out.
func (e *Engine) EvaluateCombo(cb dataset.Combination, techniques []string) (*ComboResult, error) {
	if techniques == nil {
		techniques = core.AllTechniques
	}
	// Catch typos before any training or decoding starts (same pre-pass
	// as Evaluate).
	for _, name := range techniques {
		if _, err := Lookup(name); err != nil {
			return nil, err
		}
	}
	if err := cb.Validate(e.Campaign); err != nil {
		return nil, err
	}
	run := newComboRun(e, cb, len(techniques))
	res := &ComboResult{Combo: cb, Counters: map[string]*metrics.Counter{}}
	for _, name := range techniques {
		c, err := e.evaluateTechnique(run, name)
		if err != nil {
			return nil, err
		}
		// As in the original engine, a technique that never produced a
		// countable packet (e.g. Skip on every recorded packet) is omitted
		// rather than reported as a zero-error counter.
		if c.Packets > 0 {
			res.Counters[name] = c
		}
	}
	return res, nil
}

// Evaluate runs the decode comparison over every selected combination,
// fanning (combination × technique) tasks through a bounded worker pool of
// Params.Workers goroutines. Result ordering follows Combos() regardless of
// scheduling, and the counters are byte-identical to a Workers=1 run: each
// task owns its estimator instance, receptions are shared per combination,
// and model caches are singleflight-guarded.
func (e *Engine) Evaluate(techniques []string) ([]*ComboResult, error) {
	if techniques == nil {
		techniques = core.AllTechniques
	}
	// Catch typos before any training or decoding starts.
	for _, name := range techniques {
		if _, err := Lookup(name); err != nil {
			return nil, err
		}
	}
	combos := e.Combos()
	for _, cb := range combos {
		if err := cb.Validate(e.Campaign); err != nil {
			return nil, err
		}
	}
	runs := make([]*comboRun, len(combos))
	counters := make([][]*metrics.Counter, len(combos))
	errs := make([][]error, len(combos))
	for i, cb := range combos {
		runs[i] = newComboRun(e, cb, len(techniques))
		counters[i] = make([]*metrics.Counter, len(techniques))
		errs[i] = make([]error, len(techniques))
	}

	type task struct{ ci, ti int }
	tasks := make(chan task)
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < e.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				run := runs[t.ci]
				// Fail fast: once any task errors, drain the remaining
				// tasks without evaluating them.
				if !failed.Load() {
					counters[t.ci][t.ti], errs[t.ci][t.ti] = e.evaluateTechnique(run, techniques[t.ti])
					if errs[t.ci][t.ti] != nil {
						failed.Store(true)
					}
				}
				if run.pending.Add(-1) == 0 {
					run.prep = nil // last task of this combo: release waveforms
				}
			}
		}()
	}
	for ci := range combos {
		for ti := range techniques {
			tasks <- task{ci, ti}
		}
	}
	close(tasks)
	wg.Wait()
	if failed.Load() {
		for _, errCombo := range errs {
			for _, err := range errCombo {
				if err != nil {
					return nil, err
				}
			}
		}
	}

	out := make([]*ComboResult, len(combos))
	for ci, cb := range combos {
		res := &ComboResult{Combo: cb, Counters: map[string]*metrics.Counter{}}
		for ti, name := range techniques {
			// Omit techniques that never produced a countable packet,
			// mirroring EvaluateCombo.
			if c := counters[ci][ti]; c.Packets > 0 {
				res.Counters[name] = c
			}
		}
		out[ci] = res
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
