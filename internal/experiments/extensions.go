package experiments

import (
	"fmt"

	"vvd/internal/camera"
	"vvd/internal/dataset"
)

// RunAblationDespreading compares hard (Hamming-distance) against soft
// (correlation) despreading — a receiver extension beyond the paper —
// decoding the first combination's test set with the ground-truth estimate.
func RunAblationDespreading(e *Engine) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: hard vs soft despreading (extension)"}
	cb := e.Combos()[0]
	rx := e.Campaign.Receiver
	defer func() { rx.Cfg.SoftDespreading = false }()
	for _, mode := range []struct {
		name string
		soft bool
	}{{"hard decisions (paper receiver)", false}, {"soft correlation", true}} {
		rx.Cfg.SoftDespreading = mode.soft
		rows, err := e.measure(cb, perfectEstimator(mode.name))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// DecimateImage keeps every k-th pixel in both dimensions (zero-order
// hold), modelling the paper's §6.6 privacy direction: destroy the image's
// human-identifiability while keeping coarse positional information.
func DecimateImage(img []float32, k int) []float32 {
	if k <= 1 {
		out := make([]float32, len(img))
		copy(out, img)
		return out
	}
	rows, cols := camera.CropRows, camera.CropCols
	out := make([]float32, len(img))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			rr := (r / k) * k
			cc := (c / k) * k
			out[r*cols+c] = img[rr*cols+cc]
		}
	}
	return out
}

// RunAblationPrivacy trains and evaluates VVD on progressively decimated
// depth images (paper §6.6: process pixels "before they form an image").
// It reports how much spatial resolution the estimator actually needs.
func RunAblationPrivacy(e *Engine, factors []int) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: image decimation / privacy (paper §6.6)"}
	for _, k := range factors {
		decimated, err := decimatedCampaign(e.Campaign, k)
		if err != nil {
			return nil, err
		}
		// An engine over the decimated campaign trains on, and estimates
		// from, decimated images; it decodes the same receptions.
		rows, err := NewEngineFromCampaign(decimated, e.P).evalVVDConfig(fmt.Sprintf("decimate %dx", k), e.P.Train)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// decimatedCampaign returns a shallow copy of the campaign whose images are
// decimated by k (estimates and metadata shared).
func decimatedCampaign(c *dataset.Campaign, k int) (*dataset.Campaign, error) {
	if k <= 1 {
		return c, nil
	}
	cp := *c
	cp.Sets = make([]dataset.Set, len(c.Sets))
	for si, s := range c.Sets {
		cp.Sets[si] = dataset.Set{Index: s.Index, Packets: make([]dataset.Packet, len(s.Packets))}
		for pi, p := range s.Packets {
			np := p
			for lag := range np.Images {
				if p.Images[lag] != nil {
					np.Images[lag] = DecimateImage(p.Images[lag], k)
				}
			}
			cp.Sets[si].Packets[pi] = np
		}
	}
	return &cp, nil
}

// ScalabilityRow quantifies the paper's Table 1 "Scalable" column: the
// control-channel cost of keeping fresh estimates for n transmitters.
type ScalabilityRow struct {
	Transmitters int
	// PilotPerSecond is the pilot transmissions per second a sounding-based
	// system needs (one per coherence interval per transmitter).
	PilotPerSecond float64
	// VVDPerSecond is VVD's transmit-side cost: zero — estimates come from
	// the camera, shared by every link.
	VVDPerSecond float64
	// CameraInferences is VVD's receiver-side compute per second (one CNN
	// inference per frame serves all links whose TX positions were trained).
	CameraInferences float64
}

// RunScalability computes the sounding-overhead scaling of Table 1 for a
// given coherence time (paper §6.6 suggests ~50 ms indoors; we transmit a
// pilot once per coherence interval).
func RunScalability(coherence float64, maxTX int) []ScalabilityRow {
	if coherence <= 0 {
		coherence = 0.05
	}
	rows := make([]ScalabilityRow, 0, maxTX)
	for n := 1; n <= maxTX; n *= 2 {
		rows = append(rows, ScalabilityRow{
			Transmitters:     n,
			PilotPerSecond:   float64(n) / coherence,
			VVDPerSecond:     0,
			CameraInferences: camera.FrameRate,
		})
	}
	return rows
}

// RenderScalability renders the scaling table.
func RenderScalability(rows []ScalabilityRow) string {
	out := "Scalability (Table 1 'Scalable' column): control overhead per second\n"
	out += fmt.Sprintf("%12s %18s %14s %18s\n", "transmitters", "pilots/s (pilot)", "pilots/s (VVD)", "CNN inferences/s")
	for _, r := range rows {
		out += fmt.Sprintf("%12d %18.0f %14.0f %18.0f\n",
			r.Transmitters, r.PilotPerSecond, r.VVDPerSecond, r.CameraInferences)
	}
	return out
}
