package wire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

// seedFrames builds the fuzz seed corpus: one valid frame per message
// type, plus the classic corruption shapes — truncations, bit flips,
// hostile length claims — mirroring the campaign store's FuzzOpenCampaign
// seeds. The same frames are committed under testdata/fuzz/FuzzWireDecode
// (regenerate with TestWriteFuzzCorpus).
func seedFrames() map[string][]byte {
	img := make([]float32, 32)
	for i := range img {
		img[i] = float32(i) * 0.5
	}
	est := EstimateReply{
		FrameSeq: 7, SubmittedSeq: 7,
		Age: 3 * time.Millisecond, Inference: 1600 * time.Microsecond,
		CIR: []complex64{complex(1, -1), complex(2, -2), complex(3, -3)},
	}
	stats := []LinkStats{{
		ID: "cam-0", Served: 12,
		LastAge: time.Millisecond, MeanAge: 2 * time.Millisecond,
		MaxAge: 5 * time.Millisecond, OpenedAt: time.Unix(0, 1700000000000000000),
	}}
	metrics := MetricsReply{
		FramesSubmitted: 100, FramesInferred: 97, Batches: 13, LastSeq: 100,
		EstimatesServed: 450, InferMean: 1600 * time.Microsecond,
		AgeP50: 6 * time.Millisecond, AgeP99: 21 * time.Millisecond,
		QueueLen: 1, ActiveLinks: 5, InferMode: "stub",
	}
	pong := PongReply{QueueLen: 1, Inflight: 3, ActiveLinks: 5, EstimatesServed: 450}

	seeds := map[string][]byte{
		"submit": encodeFrame(TypeSubmit, StatusOK, 1, func(b []byte) []byte {
			return appendSubmitPayload(b, "cam-0", img, 2*time.Second)
		}),
		"fetch": encodeFrame(TypeFetch, StatusOK, 2, func(b []byte) []byte {
			return appendLinkPayload(b, "cam-0")
		}),
		"close_link": encodeFrame(TypeCloseLink, StatusOK, 7, func(b []byte) []byte {
			return appendLinkPayload(b, "cam-0")
		}),
		"estimate": encodeFrame(TypeEstimate, StatusOK, 1, func(b []byte) []byte {
			return appendEstimatePayload(b, &est)
		}),
		"stats_reply": encodeFrame(TypeStatsReply, StatusOK, 3, func(b []byte) []byte {
			return appendStatsReplyPayload(b, stats)
		}),
		"metrics_reply": encodeFrame(TypeMetricsReply, StatusOK, 4, func(b []byte) []byte {
			return appendMetricsReplyPayload(b, &metrics)
		}),
		"pong": encodeFrame(TypePong, StatusOK, 5, nil),
		"pong_payload": encodeFrame(TypePong, StatusOK, 5, func(b []byte) []byte {
			return appendPongPayload(b, &pong)
		}),
		"error": encodeFrame(TypeError, StatusOverloaded, 6, func(b []byte) []byte {
			return appendErrorPayload(b, "server at max in-flight requests (256)")
		}),
	}

	submit := seeds["submit"]
	truncated := append([]byte(nil), submit[:len(submit)*2/3]...)
	seeds["submit_truncated"] = truncated
	flipped := append([]byte(nil), submit...)
	flipped[len(flipped)/2] ^= 0x40
	seeds["submit_bitflip"] = flipped
	bogus := append([]byte(nil), submit...)
	bogus[0], bogus[1], bogus[2], bogus[3] = 0xFF, 0xFF, 0xFF, 0xFF
	seeds["bogus_length"] = bogus
	// A frame whose payload claims far more pixels than it carries.
	hostile := beginFrame(nil, TypeSubmit, StatusOK, 9)
	hostile = appendString(hostile, "l")
	hostile = appendDur(hostile, 0)
	hostile = appendU32(hostile, maxImagePixels) // count with no bytes behind it
	seeds["hostile_count"] = finishFrame(hostile)
	seeds["empty"] = nil
	seeds["length_only"] = []byte{16, 0, 0, 0}
	return seeds
}

// FuzzWireDecode throws arbitrary bytes at the frame reader and every
// payload parser. The invariants: no panic, clean errors, and no
// allocation larger than the data actually present — a hostile count
// field cannot make any decoded slice outgrow its own frame.
func FuzzWireDecode(f *testing.F) {
	for _, data := range seedFrames() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, payload, _, err := readFrame(bytes.NewReader(data), nil, DefaultMaxFrame)
		if err != nil {
			return // rejected before parsing; nothing to check
		}
		if len(payload) > len(data) {
			t.Fatalf("payload %d bytes from a %d-byte input", len(payload), len(data))
		}
		// Run the payload through every parser, not just the one matching
		// hdr.Type: the server and client both dispatch on the type byte,
		// but a parser must stay safe on any payload.
		var req SubmitRequest
		if perr := parseSubmitPayload(payload, &req); perr == nil {
			if len(req.Image)*4 > len(payload) {
				t.Fatalf("decoded %d pixels from %d payload bytes", len(req.Image), len(payload))
			}
			if req.Wait > MaxWait || req.Wait < -1 {
				t.Fatalf("wait %v escaped clamping", req.Wait)
			}
		}
		if link, perr := parseLinkPayload(payload); perr == nil && len(link) > maxLinkID {
			t.Fatalf("link id %d bytes past the limit", len(link))
		}
		var est EstimateReply
		if perr := parseEstimatePayload(payload, &est); perr == nil {
			if len(est.CIR)*8 > len(payload) {
				t.Fatalf("decoded %d taps from %d payload bytes", len(est.CIR), len(payload))
			}
		}
		if stats, perr := parseStatsReplyPayload(payload, nil); perr == nil {
			if len(stats)*minStatsEntry > len(payload) {
				t.Fatalf("decoded %d stats entries from %d payload bytes", len(stats), len(payload))
			}
		}
		var m MetricsReply
		_ = parseMetricsReplyPayload(payload, &m)
		var pong PongReply
		_ = parsePongPayload(payload, &pong)
		_, _ = parseErrorPayload(payload)
		_ = hdr
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus. Normally a
// no-op; run with VVD_WRITE_FUZZ_CORPUS=1 after changing the frame
// format (and bump Version when doing that).
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("VVD_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set VVD_WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz/FuzzWireDecode")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWireDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seedFrames() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, "seed_"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSeedCorpusMatchesCommittedFiles pins that the committed corpus
// files exist and still decode the way the generator intends — a drifted
// frame format with a stale corpus would silently fuzz the wrong bytes.
func TestSeedCorpusMatchesCommittedFiles(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWireDecode")
	for name := range seedFrames() {
		p := filepath.Join(dir, "seed_"+name)
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing committed corpus file %s (regenerate with VVD_WRITE_FUZZ_CORPUS=1)", p)
		}
	}
}
