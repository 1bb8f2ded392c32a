package wire

import "time"

// Typed payload codecs, one append/parse pair per message type. Append
// functions write into a frame started by beginFrame (reusing the
// buffer's capacity); parse functions read a payload returned by
// readFrame into caller-owned structs, reusing slice capacity, with
// every length validated before allocation.

const maxErrorMsg = 4096

// durations travel as signed nanoseconds in a u64.
func appendDur(b []byte, d time.Duration) []byte { return appendU64(b, uint64(int64(d))) }

func (c *cursor) dur() time.Duration { return time.Duration(int64(c.u64())) }

// ---- Submit ----

// SubmitRequest is the decoded TypeSubmit payload. Wait < 0 is
// fire-and-forget; Wait == 0 asks for the server default.
type SubmitRequest struct {
	Link  string
	Wait  time.Duration
	Image []float32
}

func appendSubmitPayload(b []byte, link string, img []float32, wait time.Duration) []byte {
	b = appendString(b, link)
	b = appendDur(b, wait)
	return appendF32s(b, img)
}

func parseSubmitPayload(p []byte, req *SubmitRequest) error {
	c := cursor{b: p}
	req.Link = c.str(maxLinkID)
	req.Wait = c.dur()
	req.Image = c.f32s(maxImagePixels, req.Image)
	if req.Wait > MaxWait {
		req.Wait = MaxWait
	}
	if req.Wait < -1 {
		req.Wait = -1
	}
	return c.done()
}

// ---- Fetch / Stats / CloseLink requests (a bare link id) ----

func appendLinkPayload(b []byte, link string) []byte { return appendString(b, link) }

func parseLinkPayload(p []byte) (string, error) {
	c := cursor{b: p}
	link := c.str(maxLinkID)
	return link, c.done()
}

// ---- Estimate reply ----

const estFlagDropped = 1 << 0

func appendEstimatePayload(b []byte, e *EstimateReply) []byte {
	b = appendU64(b, e.FrameSeq)
	b = appendU64(b, e.SubmittedSeq)
	var flags byte
	if e.DroppedOldest {
		flags |= estFlagDropped
	}
	b = append(b, flags)
	b = appendDur(b, e.Age)
	b = appendDur(b, e.Inference)
	return appendC64s(b, e.CIR)
}

func parseEstimatePayload(p []byte, e *EstimateReply) error {
	c := cursor{b: p}
	e.FrameSeq = c.u64()
	e.SubmittedSeq = c.u64()
	flags := c.u8()
	e.DroppedOldest = flags&estFlagDropped != 0
	e.Age = c.dur()
	e.Inference = c.dur()
	e.CIR = c.c64s(maxCIRTaps, e.CIR)
	return c.done()
}

// ---- Stats reply ----

// minStatsEntry is the smallest encoded stats entry: the u16 id length
// (empty id), Served, three ages and OpenedAt. It bounds the entry count
// a payload of a given size can honestly claim.
const minStatsEntry = 2 + 8 + 3*8 + 8

func appendStatsReplyPayload(b []byte, stats []LinkStats) []byte {
	b = appendU32(b, uint32(len(stats)))
	for i := range stats {
		st := &stats[i]
		b = appendString(b, st.ID)
		b = appendU64(b, st.Served)
		b = appendDur(b, st.LastAge)
		b = appendDur(b, st.MeanAge)
		b = appendDur(b, st.MaxAge)
		b = appendU64(b, uint64(st.OpenedAt.UnixNano()))
	}
	return b
}

func parseStatsReplyPayload(p []byte, dst []LinkStats) ([]LinkStats, error) {
	c := cursor{b: p}
	n := int(c.u32())
	if n > maxStatsEntries {
		return dst[:0], c.failDone("stats entry count %d exceeds limit %d", n, maxStatsEntries)
	}
	// Bound the allocation by what is present.
	if c.err == nil && len(p)-c.off < n*minStatsEntry {
		return dst[:0], c.failDone("stats payload too short for %d entries", n)
	}
	dst = dst[:0]
	for i := 0; i < n && c.err == nil; i++ {
		var st LinkStats
		st.ID = c.str(maxLinkID)
		st.Served = c.u64()
		st.LastAge = c.dur()
		st.MeanAge = c.dur()
		st.MaxAge = c.dur()
		st.OpenedAt = time.Unix(0, int64(c.u64()))
		dst = append(dst, st)
	}
	return dst, c.done()
}

// failDone records a failure and returns the collected error in one
// step (for parse paths that bail before the end of the payload).
func (c *cursor) failDone(format string, args ...any) error {
	c.fail(format, args...)
	return c.err
}

// ---- Metrics reply ----

func appendMetricsReplyPayload(b []byte, m *MetricsReply) []byte {
	b = appendU64(b, m.FramesSubmitted)
	b = appendU64(b, m.FramesDropped)
	b = appendU64(b, m.FramesInferred)
	b = appendU64(b, m.Batches)
	b = appendU64(b, m.LastSeq)
	b = appendU64(b, m.EstimatesServed)
	b = appendDur(b, m.InferMean)
	b = appendDur(b, m.InferMax)
	b = appendDur(b, m.AgeP50)
	b = appendDur(b, m.AgeP99)
	b = appendU32(b, uint32(m.QueueLen))
	b = appendU32(b, uint32(m.ActiveLinks))
	b = appendString(b, m.InferMode)
	return appendString(b, m.Err)
}

func parseMetricsReplyPayload(p []byte, m *MetricsReply) error {
	c := cursor{b: p}
	m.FramesSubmitted = c.u64()
	m.FramesDropped = c.u64()
	m.FramesInferred = c.u64()
	m.Batches = c.u64()
	m.LastSeq = c.u64()
	m.EstimatesServed = c.u64()
	m.InferMean = c.dur()
	m.InferMax = c.dur()
	m.AgeP50 = c.dur()
	m.AgeP99 = c.dur()
	m.QueueLen = int(c.u32())
	m.ActiveLinks = int(c.u32())
	m.InferMode = c.str(maxErrorMsg)
	m.Err = c.str(maxErrorMsg)
	return c.done()
}

// ---- Ping / Pong ----

func appendPongPayload(b []byte, p *PongReply) []byte {
	b = appendU32(b, uint32(p.QueueLen))
	b = appendU32(b, uint32(p.Inflight))
	b = appendU32(b, uint32(p.ActiveLinks))
	return appendU64(b, p.EstimatesServed)
}

func parsePongPayload(p []byte, pong *PongReply) error {
	c := cursor{b: p}
	pong.QueueLen = int(c.u32())
	pong.Inflight = int(c.u32())
	pong.ActiveLinks = int(c.u32())
	pong.EstimatesServed = c.u64()
	return c.done()
}

// ---- Error ----

func appendErrorPayload(b []byte, msg string) []byte {
	if len(msg) > maxErrorMsg {
		msg = msg[:maxErrorMsg]
	}
	return appendString(b, msg)
}

func parseErrorPayload(p []byte) (string, error) {
	c := cursor{b: p}
	msg := c.str(maxErrorMsg)
	return msg, c.done()
}
