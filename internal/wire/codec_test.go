package wire

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// encodeFrame builds one complete frame the way client and server do.
func encodeFrame(typ byte, status Status, reqID uint64, enc func([]byte) []byte) []byte {
	b := beginFrame(nil, typ, status, reqID)
	if enc != nil {
		b = enc(b)
	}
	return finishFrame(b)
}

func decodeOneFrame(t *testing.T, frame []byte) (frameHeader, []byte) {
	t.Helper()
	hdr, payload, _, err := readFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return hdr, payload
}

func TestFrameRoundTrip(t *testing.T) {
	img := make([]float32, 64)
	for i := range img {
		img[i] = float32(i) * 0.25
	}
	frame := encodeFrame(TypeSubmit, StatusOK, 42, func(b []byte) []byte {
		return appendSubmitPayload(b, "cam-7", img, 1500*time.Millisecond)
	})
	hdr, payload := decodeOneFrame(t, frame)
	if hdr.Type != TypeSubmit || hdr.Status != StatusOK || hdr.ReqID != 42 {
		t.Fatalf("header = %+v", hdr)
	}
	var req SubmitRequest
	if err := parseSubmitPayload(payload, &req); err != nil {
		t.Fatal(err)
	}
	if req.Link != "cam-7" || req.Wait != 1500*time.Millisecond {
		t.Fatalf("req = %+v", req)
	}
	if len(req.Image) != len(img) {
		t.Fatalf("image length %d, want %d", len(req.Image), len(img))
	}
	for i := range img {
		if req.Image[i] != img[i] { //vvdlint:bitexact -- codec round-trip is bitwise by contract
			t.Fatalf("pixel %d = %v, want %v", i, req.Image[i], img[i])
		}
	}
}

func TestFrameStreamCarriesMultipleMessages(t *testing.T) {
	var stream bytes.Buffer
	for id := uint64(1); id <= 5; id++ {
		stream.Write(encodeFrame(TypePing, StatusOK, id, nil))
	}
	r := bytes.NewReader(stream.Bytes())
	var buf []byte
	for id := uint64(1); id <= 5; id++ {
		hdr, payload, nbuf, err := readFrame(r, buf)
		buf = nbuf
		if err != nil {
			t.Fatalf("frame %d: %v", id, err)
		}
		if hdr.ReqID != id || hdr.Type != TypePing || len(payload) != 0 {
			t.Fatalf("frame %d: hdr=%+v payload=%d", id, hdr, len(payload))
		}
	}
	if _, _, _, err := readFrame(r, buf); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsCorruption(t *testing.T) {
	valid := encodeFrame(TypeFetch, StatusOK, 9, func(b []byte) []byte {
		return appendLinkPayload(b, "link-1")
	})
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		substr  string
		wantEOF bool
	}{
		{name: "bit flip in payload", substr: "CRC mismatch",
			mutate: func(f []byte) []byte { f[len(f)/2] ^= 0x10; return f }},
		{name: "bit flip in crc", substr: "CRC mismatch",
			mutate: func(f []byte) []byte { f[len(f)-1] ^= 0x01; return f }},
		{name: "truncated mid-frame", substr: "truncated frame",
			mutate: func(f []byte) []byte { return f[:len(f)-3] }},
		{name: "truncated length field", wantEOF: true,
			mutate: func(f []byte) []byte { return f[:2] }},
		{name: "length below minimum", substr: "below minimum",
			mutate: func(f []byte) []byte { f[0], f[1], f[2], f[3] = 3, 0, 0, 0; return f }},
		{name: "length above limit", substr: "exceeds limit",
			mutate: func(f []byte) []byte { f[0], f[1], f[2], f[3] = 0xFF, 0xFF, 0xFF, 0x7F; return f }},
		{name: "nonzero reserved bytes", substr: "reserved",
			mutate: func(f []byte) []byte {
				f[6] = 1 // first reserved byte of the header
				// re-seal so only the reserved check can fire
				return finishFrame(f[:len(f)-4])
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := tc.mutate(append([]byte(nil), valid...))
			_, _, _, err := readFrame(bytes.NewReader(frame), nil)
			if tc.wantEOF {
				if err != io.ErrUnexpectedEOF {
					t.Fatalf("err = %v, want %v", err, io.ErrUnexpectedEOF)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("err = %v, want substring %q", err, tc.substr)
			}
		})
	}
}

func TestCursorRejectsHostileCounts(t *testing.T) {
	// A claimed image of maxImagePixels with only 8 payload bytes behind
	// it must fail before allocating anything near the claim.
	b := appendString(nil, "l")
	b = appendDur(b, 0)
	b = appendU32(b, maxImagePixels) // hostile count
	b = append(b, 0xDE, 0xAD, 0xBE, 0xEF)
	var req SubmitRequest
	err := parseSubmitPayload(b, &req)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want truncation", err)
	}
	if len(req.Image) != 0 {
		t.Fatalf("image decoded to %d pixels from a hostile count", len(req.Image))
	}

	// Over the hard limit is rejected even if the bytes were present.
	b = appendString(nil, "l")
	b = appendDur(b, 0)
	b = appendU32(b, maxImagePixels+1)
	err = parseSubmitPayload(b, &req)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v, want limit rejection", err)
	}
}

func TestCursorRejectsTrailingBytes(t *testing.T) {
	b := appendLinkPayload(nil, "link")
	b = append(b, 0x00)
	if _, err := parseLinkPayload(b); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("err = %v, want trailing-bytes rejection", err)
	}
}

func TestSubmitWaitClamping(t *testing.T) {
	var req SubmitRequest
	p := appendSubmitPayload(nil, "l", []float32{1}, 2*MaxWait)
	if err := parseSubmitPayload(p, &req); err != nil {
		t.Fatal(err)
	}
	if req.Wait != MaxWait {
		t.Fatalf("wait = %v, want clamp to %v", req.Wait, MaxWait)
	}
	p = appendSubmitPayload(nil, "l", []float32{1}, -5*time.Second)
	if err := parseSubmitPayload(p, &req); err != nil {
		t.Fatal(err)
	}
	if req.Wait != -1 {
		t.Fatalf("wait = %v, want clamp to -1", req.Wait)
	}
}

func TestEstimatePayloadRoundTrip(t *testing.T) {
	in := EstimateReply{
		FrameSeq:      77,
		SubmittedSeq:  75,
		DroppedOldest: true,
		Age:           13 * time.Millisecond,
		Inference:     1600 * time.Microsecond,
		CIR:           []complex64{complex(1.5, -2.25), complex(0, 3), complex(-4.125, 0.5)},
	}
	p := appendEstimatePayload(nil, &in)
	var out EstimateReply
	if err := parseEstimatePayload(p, &out); err != nil {
		t.Fatal(err)
	}
	if out.FrameSeq != in.FrameSeq || out.SubmittedSeq != in.SubmittedSeq ||
		out.DroppedOldest != in.DroppedOldest ||
		out.Age != in.Age || out.Inference != in.Inference {
		t.Fatalf("out = %+v, want %+v", out, in)
	}
	if len(out.CIR) != len(in.CIR) {
		t.Fatalf("CIR length %d, want %d", len(out.CIR), len(in.CIR))
	}
	for i := range in.CIR {
		if out.CIR[i] != in.CIR[i] { //vvdlint:bitexact -- codec round-trip is bitwise by contract
			t.Fatalf("tap %d = %v, want %v", i, out.CIR[i], in.CIR[i])
		}
	}
}

func TestStatsPayloadRoundTrip(t *testing.T) {
	now := time.Unix(0, time.Now().UnixNano())
	in := []LinkStats{
		{ID: "a", Served: 10,
			LastAge: time.Millisecond, MeanAge: 2 * time.Millisecond, MaxAge: 9 * time.Millisecond, OpenedAt: now},
		{ID: "b", Served: 3, OpenedAt: now.Add(-time.Minute)},
	}
	// Many 1-byte ids: entries this close to minStatsEntry must still
	// pass the too-short guard.
	for i := range 64 {
		in = append(in, LinkStats{ID: string(rune('!' + i)), Served: uint64(i), OpenedAt: now})
	}
	p := appendStatsReplyPayload(nil, in)
	out, err := parseStatsReplyPayload(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("entries = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if !out[i].OpenedAt.Equal(in[i].OpenedAt) {
			t.Fatalf("entry %d OpenedAt = %v, want %v", i, out[i].OpenedAt, in[i].OpenedAt)
		}
		out[i].OpenedAt = in[i].OpenedAt
		if out[i] != in[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestStatsPayloadRejectsHostileCount(t *testing.T) {
	p := appendU32(nil, 1<<19) // claim half a million sessions, carry none
	if _, err := parseStatsReplyPayload(p, nil); err == nil ||
		!strings.Contains(err.Error(), "too short") {
		t.Fatalf("err = %v, want too-short rejection", err)
	}
}

func TestMetricsPayloadRoundTrip(t *testing.T) {
	in := MetricsReply{
		FramesSubmitted: 100, FramesDropped: 3, FramesInferred: 97,
		Batches: 13, LastSeq: 100, EstimatesServed: 450,
		InferMean: 1600 * time.Microsecond, InferMax: 4 * time.Millisecond,
		AgeP50: 6 * time.Millisecond, AgeP99: 21 * time.Millisecond,
		QueueLen: 1, ActiveLinks: 5,
		InferMode: "gemm+avx2", Err: "",
	}
	p := appendMetricsReplyPayload(nil, &in)
	var out MetricsReply
	if err := parseMetricsReplyPayload(p, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("out = %+v, want %+v", out, in)
	}
}

func TestPongPayloadRoundTrip(t *testing.T) {
	in := PongReply{QueueLen: 4, Inflight: 17, ActiveLinks: 300, EstimatesServed: 1 << 40}
	p := appendPongPayload(nil, &in)
	var out PongReply
	if err := parsePongPayload(p, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("out = %+v, want %+v", out, in)
	}
}

func TestErrorPayloadTruncatesLongMessages(t *testing.T) {
	long := strings.Repeat("x", maxErrorMsg+100)
	p := appendErrorPayload(nil, long)
	msg, err := parseErrorPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg) != maxErrorMsg {
		t.Fatalf("message length %d, want %d", len(msg), maxErrorMsg)
	}
}

func TestPrefaceRejectsWrongPeer(t *testing.T) {
	var good bytes.Buffer
	if err := writePreface(&good); err != nil {
		t.Fatal(err)
	}
	if err := readPreface(bytes.NewReader(good.Bytes())); err != nil {
		t.Fatalf("valid preface rejected: %v", err)
	}
	if err := readPreface(strings.NewReader("GET / HT")); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v, want magic rejection", err)
	}
	bad := append([]byte(nil), good.Bytes()...)
	bad[4] = 99 // version
	if err := readPreface(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want version rejection", err)
	}
}

func TestFloatSlicesSurviveSpecialValues(t *testing.T) {
	in := []float32{0, float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, math.SmallestNonzeroFloat32}
	p := appendF32s(nil, in)
	c := cursor{b: p}
	out := c.f32s(maxImagePixels, nil)
	if err := c.done(); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if math.Float32bits(out[i]) != math.Float32bits(in[i]) {
			t.Fatalf("value %d: bits %08x, want %08x", i, math.Float32bits(out[i]), math.Float32bits(in[i]))
		}
	}
	// NaN must survive bit-exactly too.
	nan := []float32{float32(math.NaN())}
	p = appendF32s(nil, nan)
	c = cursor{b: p}
	out = c.f32s(maxImagePixels, out)
	if err := c.done(); err != nil {
		t.Fatal(err)
	}
	if math.Float32bits(out[0]) != math.Float32bits(nan[0]) {
		t.Fatalf("NaN bits %08x, want %08x", math.Float32bits(out[0]), math.Float32bits(nan[0]))
	}
}
