package camera

import "math"

// Synchronizer implements the LED-blink packet↔frame matching of the
// paper's Fig. 3: packets arrive every ~100 ms while frames arrive every
// ~33 ms, so two frames can be candidates for the same packet. The
// transmitter blinks its LED during transmission; the blink is visible in
// exactly the frame whose exposure covers the transmit instant, resolving
// the ambiguity.
type Synchronizer struct {
	FrameRate float64 // frames per second
}

// NewSynchronizer returns a synchronizer at the camera frame rate.
func NewSynchronizer() *Synchronizer { return &Synchronizer{FrameRate: FrameRate} }

// FrameIndex returns the index of the frame whose exposure interval
// [i/fps, (i+1)/fps) contains the packet transmit time.
func (s *Synchronizer) FrameIndex(packetTime float64) int {
	if packetTime < 0 {
		return 0
	}
	return int(math.Floor(packetTime * s.FrameRate))
}
