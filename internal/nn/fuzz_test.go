package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzzU32 appends a little-endian u32 — the only primitive in the model
// format besides raw float64 runs.
func fuzzU32(b []byte, v uint32) []byte {
	var x [4]byte
	binary.LittleEndian.PutUint32(x[:], v)
	return append(b, x[:]...)
}

// savedModel serializes a small but complete network (conv → relu →
// pool → flatten → dense, every layer kind the format knows).
func savedModel(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	net, err := NewNetwork(Shape{H: 6, W: 6, C: 1}, rng,
		NewConv2D(3, 3, 2), NewReLU(), NewPool2D(AvgPool), NewFlatten(), NewDense(4))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// seedModels builds the fuzz seed corpus: a valid model plus the classic
// corruption shapes — truncations, bit flips, forged metadata, hostile
// size claims — mirroring FuzzWireDecode and FuzzOpenCampaign. The same
// bytes are committed under testdata/fuzz/FuzzNetworkLoad (regenerate
// with TestWriteFuzzCorpus).
func seedModels(tb testing.TB) map[string][]byte {
	valid := savedModel(tb)

	seeds := map[string][]byte{
		"valid": valid,
		"empty": nil,
	}
	seeds["magic_only"] = append([]byte(nil), valid[:4]...)
	seeds["truncated_header"] = append([]byte(nil), valid[:14]...)
	seeds["truncated_weights"] = append([]byte(nil), valid[:len(valid)*2/3]...)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x20
	seeds["bitflip"] = flipped

	// conv2d layer whose meta claims a 0×0 kernel — the constructor-panic
	// regression (NewConv2D used to be called on unvalidated meta).
	zeroConv := fuzzU32(nil, modelMagic)
	for _, v := range []uint32{6, 6, 1, 1} {
		zeroConv = fuzzU32(zeroConv, v)
	}
	zeroConv = fuzzU32(zeroConv, 6)
	zeroConv = append(zeroConv, "conv2d"...)
	for _, v := range []uint32{0, 0, 0} {
		zeroConv = fuzzU32(zeroConv, v)
	}
	seeds["zero_conv_meta"] = zeroConv

	// dense layer claiming 0 units — same panic family.
	zeroDense := fuzzU32(nil, modelMagic)
	for _, v := range []uint32{1, 1, 8, 1} {
		zeroDense = fuzzU32(zeroDense, v)
	}
	zeroDense = fuzzU32(zeroDense, 5)
	zeroDense = append(zeroDense, "dense"...)
	for _, v := range []uint32{0, 0, 0} {
		zeroDense = fuzzU32(zeroDense, v)
	}
	seeds["zero_dense_units"] = zeroDense

	// dense header whose parameter record claims ~100M floats with no
	// bytes behind it — the over-allocation shape (binary.Read used to
	// reserve the full claimed size before noticing the input ended).
	hostile := fuzzU32(nil, modelMagic)
	for _, v := range []uint32{1, 1, 1000, 1} {
		hostile = fuzzU32(hostile, v)
	}
	hostile = fuzzU32(hostile, 5)
	hostile = append(hostile, "dense"...)
	for _, v := range []uint32{50_000, 0, 0} {
		hostile = fuzzU32(hostile, v)
	}
	hostile = fuzzU32(hostile, 50_000_000) // w size: claims 400 MB of floats
	seeds["hostile_param_size"] = hostile

	// layer count far beyond anything Save produces.
	bogusCount := append([]byte(nil), valid[:16]...)
	bogusCount = fuzzU32(bogusCount, 1<<30)
	seeds["bogus_layer_count"] = bogusCount

	// unknown layer name.
	unknown := fuzzU32(nil, modelMagic)
	for _, v := range []uint32{6, 6, 1, 1} {
		unknown = fuzzU32(unknown, v)
	}
	unknown = fuzzU32(unknown, 7)
	unknown = append(unknown, "dropout"...)
	for _, v := range []uint32{1, 1, 1} {
		unknown = fuzzU32(unknown, v)
	}
	seeds["unknown_layer"] = unknown

	return seeds
}

// fuzzForwardBudget caps the largest activation tensor (elements) of a
// fuzzed model that FuzzNetworkLoad compiles and runs, so a tiny input
// claiming a 2^26-element plane cannot exhaust the fuzzer's memory.
const fuzzForwardBudget = 1 << 20

// FuzzNetworkLoad throws arbitrary bytes at the model decoder. The
// invariants: no panic, clean errors, and no network whose weights
// outgrow the input that claimed to carry them — every parameter float
// is 8 bytes on the wire, so a loaded model can never hold more than
// len(data)/8 of them. Every accepted model within fuzzForwardBudget must
// also compile into an InferenceEngine and run one zero-frame forward: a
// forged model can never steer the engine's unchecked SIMD loads out of
// bounds.
func FuzzNetworkLoad(f *testing.F) {
	for _, data := range seedModels(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejected; nothing further to check
		}
		if got := net.NumParams() * 8; got > len(data) {
			t.Fatalf("loaded %d weight bytes from a %d-byte input", got, len(data))
		}
		// A successfully loaded model must round-trip bit-identically.
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatalf("re-save: %v", err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("re-load: %v", err)
		}
		if again.NumParams() != net.NumParams() || again.In != net.In || again.Out != net.Out {
			t.Fatalf("round-trip drifted: %v/%v params %d/%d",
				net.In, again.In, net.NumParams(), again.NumParams())
		}
		largest, shape := net.In.Size(), net.In
		for _, l := range net.Layers {
			if shape, err = l.OutShape(shape); err != nil {
				t.Fatalf("loaded model fails its own shape walk: %v", err)
			}
			largest = max(largest, shape.Size())
		}
		if largest > fuzzForwardBudget {
			return
		}
		eng, err := NewInferenceEngine(net)
		if err != nil {
			t.Fatalf("loaded model does not compile: %v", err)
		}
		if _, err := eng.ForwardBatchF32([][]float32{make([]float32, net.In.Size())}); err != nil {
			t.Fatalf("zero-frame forward: %v", err)
		}
	})
}

// TestLoadForgedHeaders pins the decoder's behavior on each forged seed:
// a clean error (never a panic, never a giant allocation) with a message
// from the validation layer, not a downstream failure.
func TestLoadForgedHeaders(t *testing.T) {
	seeds := seedModels(t)
	cases := []struct {
		seed    string
		wantErr string
	}{
		{"zero_conv_meta", "implausible conv meta"},
		{"zero_dense_units", "implausible dense units"},
		{"hostile_param_size", ""}, // EOF after at most one chunk — any clean error
		{"bogus_layer_count", "implausible layer count"},
		{"unknown_layer", "unknown layer"},
		{"truncated_weights", ""},
		{"magic_only", ""},
	}
	for _, c := range cases {
		data, ok := seeds[c.seed]
		if !ok {
			t.Fatalf("no seed %q", c.seed)
		}
		_, err := Load(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: Load accepted forged input", c.seed)
			continue
		}
		if c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q, want substring %q", c.seed, err, c.wantErr)
		}
	}
}

// TestLoadRoundTrip pins that a real saved model still loads with
// identical weights after the validation rewrite.
func TestLoadRoundTrip(t *testing.T) {
	data := savedModel(t)
	net, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, buf.Bytes()) {
		t.Fatal("save→load→save is not bit-identical")
	}
}

// TestWriteFuzzCorpus regenerates the committed seed corpus. Normally a
// no-op; run with VVD_WRITE_FUZZ_CORPUS=1 after changing the model
// format.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("VVD_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set VVD_WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz/FuzzNetworkLoad")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzNetworkLoad")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seedModels(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, "seed_"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSeedCorpusMatchesCommittedFiles pins that the committed corpus
// files exist — a drifted model format with a stale corpus would
// silently fuzz the wrong bytes.
func TestSeedCorpusMatchesCommittedFiles(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzNetworkLoad")
	for name := range seedModels(t) {
		p := filepath.Join(dir, "seed_"+name)
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing committed corpus file %s (regenerate with VVD_WRITE_FUZZ_CORPUS=1)", p)
		}
	}
}
