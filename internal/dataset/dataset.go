// Package dataset generates and organizes the measurement campaign the
// paper collected on its testbed: 15 measurement sets ("takes") of packets
// transmitted every 100 ms while people walk through the room (the paper's
// single human, a collision-avoiding crowd, or nobody — see
// Config.Occupants and internal/scenario), each packet synchronized (LED
// blink) with the depth-camera frame stream, plus the Table 2
// train/validation/test set combinations and the CIR normalization used
// for the ML targets.
//
// Waveforms are not stored: every packet records the RNG seed of its link
// realization, so receptions can be regenerated bit-exactly on demand.
package dataset

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"vvd/internal/camera"
	"vvd/internal/channel"
	"vvd/internal/dsp"
	"vvd/internal/estimate"
	"vvd/internal/phy"
	"vvd/internal/room"
)

// PacketInterval is the transmit period (paper: one packet each 100 ms).
const PacketInterval = 0.1

// ImageLag enumerates the depth-image inputs stored per packet: the
// LED-synchronized current frame plus the frames one and three frame
// periods earlier (inputs of the VVD-33.3ms-Future and VVD-100ms-Future
// variants).
type ImageLag int

// Image lags.
const (
	LagCurrent ImageLag = iota // frame synchronized with the packet
	Lag33ms                    // one frame earlier (≈33.3 ms)
	Lag100ms                   // three frames earlier (≈100 ms)
	numLags
)

// Config parameterizes campaign generation.
type Config struct {
	Sets          int    // number of measurement takes (paper: 15)
	PacketsPerSet int    // packets per take
	PSDULen       int    // PSDU size in bytes (paper: 127)
	Seed          uint64 // master seed
	RenderImages  bool   // render depth images (needed for VVD)
	Imp           channel.Impairments
	Mobility      room.MobilityConfig
	// Scripted replaces the random-waypoint walk with the deterministic
	// diagonal path that repeatedly crosses the TX–RX line — used by the
	// burst-error timeline experiment (paper Fig. 15).
	Scripted bool
	// HumanScatterGain overrides the geometry's human re-radiation
	// efficiency when non-zero (how strongly the person's body itself
	// contributes a moving multipath component).
	HumanScatterGain float64
	// Scenario names the preset or composed scenario this configuration
	// was derived from (internal/scenario), purely as provenance: the
	// fields above carry everything generation needs, so the label
	// round-trips through the store header and survives into reports
	// without being re-resolved.
	Scenario string `json:",omitempty"`
	// Occupants is the number of people walking the room: 0 keeps the
	// paper's single human (the zero value of every pre-scenario campaign),
	// N > 1 puts N collision-avoiding walkers in the movement area, and -1
	// empties the room entirely (static channel, background-only frames).
	// With Scripted set, occupant 0 follows the deterministic diagonal and
	// the remaining occupants walk randomly around it.
	Occupants int `json:",omitempty"`
	// RoomWidth/RoomDepth/RoomHeight override the laboratory dimensions in
	// metres. All three zero (the pre-geometry zero value) keeps the
	// paper's 8×6×3 m room; otherwise all three must be positive and the
	// layout (antennas, camera, movement area) scales proportionally via
	// room.ScaledLab. Like every world-shaping field they round-trip
	// through the campaign store header.
	RoomWidth  float64 `json:",omitempty"`
	RoomDepth  float64 `json:",omitempty"`
	RoomHeight float64 `json:",omitempty"`
	// Workers bounds the goroutines generating packets (and rendering
	// their camera frames); 0 means one per core, 1 means sequential,
	// matching the evaluation engine's knob. The generated campaign is
	// byte-identical for every worker count: packets are independent given
	// their link seeds and the per-set frame trajectories, which are
	// precomputed sequentially. As a pure execution knob it is excluded
	// from the campaign store header, keeping written files identical
	// across worker counts too.
	Workers int `json:"-"`
}

// DefaultConfig returns a laptop-scale campaign (the paper's full campaign
// is 22,704 packets over 15 sets; see EXPERIMENTS.md for scaling notes).
func DefaultConfig() Config {
	return Config{
		Sets:          15,
		PacketsPerSet: 120,
		PSDULen:       phy.DefaultPSDULen,
		Seed:          1,
		RenderImages:  true,
		Imp:           channel.DefaultImpairments(),
		Mobility:      room.DefaultMobility(),
	}
}

// Packet is one synchronized (image, waveform, estimate) observation. The
// reception itself is regenerated from LinkSeed when needed.
type Packet struct {
	Index    int       // packet index within the set
	Time     float64   // transmit time within the take (seconds)
	SeqNum   byte      // 802.15.4 sequence number
	Pos      room.Vec3 // first occupant's position during the synchronized frame
	LinkSeed uint64    // seed of the link realization

	// Others holds the positions of occupants beyond the first (nil for the
	// paper's single-human campaigns and for the empty room), so receptions
	// of multi-occupant campaigns regenerate bit-exactly from the packet
	// record alone.
	Others []room.Vec3

	TrueCIR        []complex128 // oracle: the block-fading CIR applied
	Perfect        []complex128 // LS estimate over the whole packet ("Ground Truth")
	PerfectAligned []complex128 // Perfect, mean-phase-aligned to the campaign reference
	PreambleEst    []complex128 // LS estimate over the SHR (always computed: "Genie")

	SyncPeak         float64 // normalized preamble correlation
	PreambleDetected bool    // whether detection passed the threshold

	// Images holds the normalized depth images (row-major CropRows×CropCols,
	// [0,1] floats) for each ImageLag; nil when rendering is disabled.
	Images [numLags][]float32
}

// Set is one measurement take.
type Set struct {
	Index   int // 1-based set id as used by Table 2
	Packets []Packet
}

// Campaign is a full generated measurement campaign plus the simulation
// objects needed to regenerate receptions.
type Campaign struct {
	Cfg      Config
	Room     *room.Room
	Geometry *channel.Geometry
	Model    *channel.Model
	Receiver *estimate.Receiver
	Camera   *camera.Camera
	Sets     []Set

	// RefCIR is the clear-room CIR every estimate is phase-aligned to.
	RefCIR []complex128

	// tx caches the transmit-side build per 802.15.4 sequence number:
	// BuildTx output depends only on (seq, PSDULen), so a campaign needs
	// at most 256 variants no matter how many packets it generates or
	// regenerates.
	tx *txCache
}

// txVariant is the cached part of one transmit build: what is small or
// costly per sequence number. The waveform is neither — it is as large as
// a reception and takes one modulation pass to rebuild from the chips —
// so it is not kept: whoever transmits regenerates it from the chips with
// txCache.mod, bit-identically to BuildTx.
type txVariant struct {
	ppdu  *phy.PPDU
	chips []byte
	power float64 // dsp.Power of the waveform, constant per variant
	// gtSolver holds the ground-truth LS normal equations of the
	// waveform; Estimate is handed the regenerated waveform.
	gtSolver *estimate.LSSolver
}

// txCache lazily builds and retains the ≤256 (seq → transmit) variants of
// a campaign. Reads are lock-free; the mutex only serializes first
// construction of a variant. All returned slices are shared and must be
// treated as read-only.
type txCache struct {
	psduLen  int
	receiver *estimate.Receiver
	mod      *phy.Modulator

	mu       sync.Mutex
	variants [256]atomic.Pointer[txVariant]

	// waves pools the waveform buffers ReceptionPacket regenerates into
	// (*[]complex128).
	waves sync.Pool
}

func newTxCache(psduLen int, receiver *estimate.Receiver) *txCache {
	tc := &txCache{psduLen: psduLen, receiver: receiver, mod: phy.NewModulator()}
	tc.waves.New = func() any { return new([]complex128) }
	return tc
}

// errNoTxCache rejects regeneration on a Campaign that was not built by
// NewShell (directly or through Generate or the campaign store).
var errNoTxCache = errors.New("dataset: campaign has no transmit cache; build it with NewShell or Generate")

func (tc *txCache) get(seq byte) (*txVariant, error) {
	if v := tc.variants[seq].Load(); v != nil {
		return v, nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if v := tc.variants[seq].Load(); v != nil {
		return v, nil
	}
	ppdu, wave, chips, err := BuildTx(tc.mod, seq, tc.psduLen)
	if err != nil {
		return nil, err
	}
	solver, err := estimate.NewLSSolver(wave, tc.receiver.Cfg.CIRTaps)
	if err != nil {
		return nil, err
	}
	v := &txVariant{ppdu: ppdu, chips: chips, power: dsp.Power(wave), gtSolver: solver}
	tc.variants[seq].Store(v)
	return v, nil
}

// ImagePixels is the flattened size of one preprocessed depth image.
const ImagePixels = camera.CropRows * camera.CropCols

// NumOccupants resolves the Occupants knob: 0 (the pre-scenario zero value)
// means the paper's single human, negative values mean an empty room.
func (c Config) NumOccupants() int {
	switch {
	case c.Occupants < 0:
		return 0
	case c.Occupants == 0:
		return 1
	}
	return c.Occupants
}

// Bodies reconstructs the occupant bodies present while the packet was
// received: the first occupant at Pos plus one per entry of Others, or none
// for an empty-room campaign. The result feeds the multi-occupant channel
// and camera paths during regeneration.
func (p *Packet) Bodies(cfg Config) []room.Human {
	if cfg.NumOccupants() == 0 {
		return nil
	}
	hs := make([]room.Human, 1+len(p.Others))
	hs[0] = room.DefaultHuman(p.Pos)
	for i, o := range p.Others {
		hs[i+1] = room.DefaultHuman(o)
	}
	return hs
}

// NewShell builds the simulation environment of a campaign — room,
// geometry, channel model, receiver, camera and reference CIR — exactly as
// Generate does, but with no measurement sets. Every configuration field
// that shapes the environment (notably HumanScatterGain) is honored, so a
// shell plus stored packets regenerates receptions bit-identically to the
// campaign that produced them. The campaign store uses it to rebuild
// loaded campaigns.
func NewShell(cfg Config) (*Campaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lab, err := cfg.lab()
	if err != nil {
		return nil, err
	}
	g := channel.NewGeometry(lab, phy.Wavelength)
	if cfg.HumanScatterGain != 0 {
		g.HumanScatterGain = cfg.HumanScatterGain
	}
	model := channel.NewModel(g, phy.SampleRate)
	rx := estimate.NewReceiver(estimate.DefaultConfig())
	return &Campaign{
		Cfg:      cfg,
		Room:     lab,
		Geometry: g,
		Model:    model,
		Receiver: rx,
		Camera:   camera.New(lab, 90),
		RefCIR:   model.ProjectPaths(g.PathsClear()),
		tx:       newTxCache(cfg.PSDULen, rx),
	}, nil
}

// setPlan holds the precomputed, deterministic per-set state packets draw
// from: the frame-resolution trajectories of every occupant, each packet's
// LED-synchronized frame index, and the memoized frame renders.
type setPlan struct {
	seed uint64
	// framePos[f] lists the occupant positions at frame f (occupant 0
	// first; empty for an empty-room campaign); frameHumans[f] is the same
	// frame as ready-made bodies for the channel and camera.
	framePos    [][]room.Vec3
	frameHumans [][]room.Human
	frames      []int // per-packet LED frame index
	renders     []frameRender
}

// frameRender memoizes one camera frame: packets at the three image lags
// reference overlapping frames, so each referenced frame is rendered
// exactly once per set and its normalized float32 buffer shared by every
// packet (and lag) that uses it. sync.Once keeps the laziness safe under
// the parallel packet fan-out.
type frameRender struct {
	once sync.Once
	pix  []float32
}

func (p *setPlan) framePix(c *Campaign, f int) []float32 {
	r := &p.renders[f]
	r.once.Do(func() {
		img := c.Camera.RenderPreprocessedMulti(p.frameHumans[f])
		r.pix = img.NormalizedF32(c.Camera.MaxRange)
	})
	return r.pix
}

// planSet precomputes the trajectories and frame indices of one set.
//
// Occupant 0 reuses the exact random stream of the pre-scenario single
// walker (the per-occupant seed derivation is the identity at i = 0), so
// single-occupant campaigns are bit-identical to campaigns generated before
// occupancy existed. Further occupants draw from independent streams and
// step through a collision-avoiding room.Crowd.
func planSet(c *Campaign, s int) *setPlan {
	cfg := c.Cfg
	occ := cfg.NumOccupants()
	setSeed := cfg.Seed + uint64(s)*1_000_003
	// Simulate the take at camera frame resolution.
	nFrames := int(float64(cfg.PacketsPerSet)*PacketInterval*camera.FrameRate) + 8
	flatPos := make([]room.Vec3, nFrames*occ)
	framePos := make([][]room.Vec3, nFrames)
	for f := range framePos {
		framePos[f] = flatPos[f*occ : (f+1)*occ : (f+1)*occ]
	}
	occRNG := func(i int) *rand.Rand {
		oseed := setSeed + uint64(i)*0x9E3779B97F4A7C15
		return rand.New(rand.NewPCG(oseed, oseed^0x5bd1e995))
	}
	switch {
	case occ == 0:
		// Empty room: no trajectories to simulate.
	case cfg.Scripted:
		pts := room.ScriptedPath(c.Room.MovementArea, nFrames, camera.FrameInterval, 1.1)
		for f := range framePos {
			framePos[f][0] = pts[f].Pos
		}
		if occ > 1 {
			crowd := room.NewCrowd(c.Room.MovementArea, cfg.Mobility, occ-1,
				func(i int) *rand.Rand { return occRNG(i + 1) }, 0)
			// The scripted occupant is not steered by the crowd; the
			// random walkers yield to it where their slower walking
			// dynamics allow (it can still brush past them).
			crowd.Obstacles = make([]room.Vec3, 1)
			for f := range framePos {
				crowd.Obstacles[0] = pts[f].Pos
				crowd.Step(camera.FrameInterval)
				framePos[f] = crowd.Positions(framePos[f][:1])
			}
		}
	default:
		crowd := room.NewCrowd(c.Room.MovementArea, cfg.Mobility, occ, occRNG, 0)
		for f := range framePos {
			crowd.Step(camera.FrameInterval)
			framePos[f] = crowd.Positions(framePos[f][:0])
		}
	}
	flatHum := make([]room.Human, nFrames*occ)
	frameHumans := make([][]room.Human, nFrames)
	for f := range frameHumans {
		hf := flatHum[f*occ : (f+1)*occ : (f+1)*occ]
		for i := range hf {
			hf[i] = room.DefaultHuman(framePos[f][i])
		}
		frameHumans[f] = hf
	}
	sync := camera.NewSynchronizer()
	frames := make([]int, cfg.PacketsPerSet)
	for k := range frames {
		frame := sync.FrameIndex(float64(k+1) * PacketInterval)
		if frame >= nFrames {
			frame = nFrames - 1
		}
		frames[k] = frame
	}
	return &setPlan{seed: setSeed, framePos: framePos, frameHumans: frameHumans, frames: frames, renders: make([]frameRender, nFrames)}
}

// genWorker carries one generation goroutine's reusable state: the
// transmit and reception waveform buffers and a reseedable RNG (a
// packet's link stream is a function of its seed alone, so reseeding one
// PCG is equivalent to constructing a fresh one per packet).
type genWorker struct {
	c       *Campaign
	pcg     *rand.PCG
	rng     *rand.Rand
	txBuf   []complex128
	waveBuf []complex128
}

func newGenWorker(c *Campaign) *genWorker {
	pcg := rand.NewPCG(0, 0)
	return &genWorker{c: c, pcg: pcg, rng: rand.New(pcg)}
}

// packet builds packet k of set s into its preallocated slot.
func (g *genWorker) packet(plan *setPlan, s, k int) error {
	c := g.c
	cfg := c.Cfg
	t := float64(k+1) * PacketInterval
	frame := plan.frames[k]
	humans := plan.frameHumans[frame]
	var pos room.Vec3
	var others []room.Vec3
	if len(humans) > 0 {
		pos = plan.framePos[frame][0]
		if rest := plan.framePos[frame][1:]; len(rest) > 0 {
			others = append([]room.Vec3(nil), rest...)
		}
	}
	seq := byte(k % 256)
	linkSeed := plan.seed*31 + uint64(k)*2_654_435_761
	tv, err := c.tx.get(seq)
	if err != nil {
		return err
	}
	g.txBuf = c.tx.mod.ModulateChipsInto(g.txBuf, tv.chips)
	g.pcg.Seed(linkSeed, linkSeed^0x9e3779b9)
	link := channel.NewLink(c.Model, cfg.Imp, g.rng)
	rec := link.TransmitMultiBufPow(g.txBuf, tv.power, humans, g.waveBuf)
	g.waveBuf = rec.Waveform
	rxc, _ := c.Receiver.CorrectCFOInPlace(rec.Waveform)
	detected, peak, _ := c.Receiver.DetectPreamble(rxc)
	perfect, err := tv.gtSolver.Estimate(g.txBuf, rxc)
	if err != nil {
		return fmt.Errorf("dataset: set %d packet %d ground truth: %w", s+1, k, err)
	}
	preamble, err := c.Receiver.EstimatePreamble(rxc)
	if err != nil {
		return fmt.Errorf("dataset: set %d packet %d preamble estimate: %w", s+1, k, err)
	}
	pkt := Packet{
		Index:            k,
		Time:             t,
		SeqNum:           seq,
		Pos:              pos,
		Others:           others,
		LinkSeed:         linkSeed,
		TrueCIR:          rec.TrueCIR,
		Perfect:          perfect,
		PerfectAligned:   estimate.AlignPhase(perfect, c.RefCIR),
		PreambleEst:      preamble,
		SyncPeak:         peak,
		PreambleDetected: detected,
	}
	if cfg.RenderImages {
		for lag := ImageLag(0); lag < numLags; lag++ {
			f := frame - lagFrames(lag)
			if f < 0 {
				f = 0
			}
			pkt.Images[lag] = plan.framePix(c, f)
		}
	}
	c.Sets[s].Packets[k] = pkt
	return nil
}

// Generate builds a campaign. Each set uses an independent random-waypoint
// trajectory; the packet↔frame pairing follows the LED synchronization.
//
// Packets are generated by Config.Workers goroutines. Each packet's link
// realization is seeded individually and the per-set trajectories are
// precomputed sequentially, so the campaign is byte-identical for every
// worker count (pinned by TestGenerateParallelMatchesSequential).
func Generate(cfg Config) (*Campaign, error) {
	if cfg.Sets <= 0 || cfg.PacketsPerSet <= 0 {
		return nil, fmt.Errorf("dataset: need positive sets/packets, got %d/%d", cfg.Sets, cfg.PacketsPerSet)
	}
	c, err := NewShell(cfg)
	if err != nil {
		return nil, err
	}
	plans := make([]*setPlan, cfg.Sets)
	c.Sets = make([]Set, cfg.Sets)
	for s := range plans {
		plans[s] = planSet(c, s)
		c.Sets[s] = Set{Index: s + 1, Packets: make([]Packet, cfg.PacketsPerSet)}
	}

	total := cfg.Sets * cfg.PacketsPerSet
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	if workers == 1 {
		g := newGenWorker(c)
		for i := 0; i < total; i++ {
			if err := g.packet(plans[i/cfg.PacketsPerSet], i/cfg.PacketsPerSet, i%cfg.PacketsPerSet); err != nil {
				return nil, err
			}
		}
		return c, nil
	}

	// Parallel fan-out: workers pull packet indices from a shared counter
	// and write disjoint packet slots; the first error stops the fleet.
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := newGenWorker(c)
			for {
				i := int(next.Add(1) - 1)
				if i >= total || failed.Load() {
					return
				}
				s, k := i/cfg.PacketsPerSet, i%cfg.PacketsPerSet
				if err := g.packet(plans[s], s, k); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return c, nil
}

func lagFrames(lag ImageLag) int {
	switch lag {
	case Lag33ms:
		return 1
	case Lag100ms:
		return 3
	default:
		return 0
	}
}

// BuildTx assembles the PPDU, waveform and chip sequence for a sequence
// number at the configured PSDU length.
func BuildTx(mod *phy.Modulator, seq byte, psduLen int) (*phy.PPDU, []complex128, []byte, error) {
	frame := &phy.Frame{SeqNum: seq, Payload: phy.DefaultPayload(psduLen)}
	psdu, err := frame.BuildPSDU()
	if err != nil {
		return nil, nil, nil, err
	}
	ppdu, err := phy.BuildPPDU(psdu)
	if err != nil {
		return nil, nil, nil, err
	}
	chips := phy.SpreadBits(ppdu.Bits)
	wave := mod.ModulateChips(chips)
	return ppdu, wave, chips, nil
}

// Reception regenerates the bit-exact link realization of a packet, like
// ReceptionPacket, and also returns the packet's transmit waveform,
// regenerated into a new slice that the caller owns. Callers that do not
// need the waveform use ReceptionPacket, which spares the allocation.
func (c *Campaign) Reception(setIdx1Based, pktIdx int) (*phy.PPDU, []complex128, []byte, *channel.Reception, error) {
	if setIdx1Based < 1 || setIdx1Based > len(c.Sets) {
		return nil, nil, nil, nil, fmt.Errorf("dataset: set %d out of range", setIdx1Based)
	}
	set := c.Sets[setIdx1Based-1]
	if pktIdx < 0 || pktIdx >= len(set.Packets) {
		return nil, nil, nil, nil, fmt.Errorf("dataset: packet %d out of range", pktIdx)
	}
	tv, wave, rec, err := c.transmit(&set.Packets[pktIdx], nil)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return tv.ppdu, wave, tv.chips, rec, nil
}

// ReceptionPacket regenerates the bit-exact link realization of a packet
// that need not live in c.Sets — the streaming path hands packets of one
// decoded set to a campaign shell without materializing the others.
//
// The PPDU and chips come from the campaign's per-sequence cache and are
// shared between calls: treat them as read-only. The transmit waveform is
// regenerated into a pooled buffer for the transmission and not returned;
// Reception returns it. The campaign must come from Generate, NewShell or
// the campaign store.
func (c *Campaign) ReceptionPacket(pkt *Packet) (*phy.PPDU, []byte, *channel.Reception, error) {
	if c.tx == nil {
		return nil, nil, nil, errNoTxCache
	}
	bp := c.tx.waves.Get().(*[]complex128)
	tv, wave, rec, err := c.transmit(pkt, *bp)
	*bp = wave
	c.tx.waves.Put(bp)
	if err != nil {
		return nil, nil, nil, err
	}
	return tv.ppdu, tv.chips, rec, nil
}

// transmit regenerates pkt's transmit waveform into buf (see
// phy.Modulator.ModulateChipsInto) and sends it through the packet's
// seeded link.
func (c *Campaign) transmit(pkt *Packet, buf []complex128) (*txVariant, []complex128, *channel.Reception, error) {
	if c.tx == nil {
		return nil, buf, nil, errNoTxCache
	}
	tv, err := c.tx.get(pkt.SeqNum)
	if err != nil {
		return nil, buf, nil, err
	}
	wave := c.tx.mod.ModulateChipsInto(buf, tv.chips)
	link := channel.NewLink(c.Model, c.Cfg.Imp, rand.New(rand.NewPCG(pkt.LinkSeed, pkt.LinkSeed^0x9e3779b9)))
	rec := link.TransmitMultiBufPow(wave, tv.power, pkt.Bodies(c.Cfg), nil)
	return tv, wave, rec, nil
}

// Set returns the 1-based measurement set.
func (c *Campaign) Set(idx1Based int) (*Set, error) {
	if idx1Based < 1 || idx1Based > len(c.Sets) {
		return nil, fmt.Errorf("dataset: set %d out of range (have %d)", idx1Based, len(c.Sets))
	}
	return &c.Sets[idx1Based-1], nil
}

// ErrNoImages indicates the campaign was generated without depth images.
var ErrNoImages = errors.New("dataset: campaign generated with RenderImages=false")
