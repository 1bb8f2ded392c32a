package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
)

// kvFuzzSeeds builds the FuzzKVReplay seed corpus: segment files a
// writer leaves (empty, header only, committed batches) and the shapes
// recovery must judge — torn and zero-filled tails, a flipped payload
// byte, a hostile length claim, a delete record and a foreign header.
// The same logs are committed under testdata/fuzz/FuzzKVReplay
// (regenerate with TestWriteKVFuzzCorpus).
func kvFuzzSeeds() map[string][]byte {
	two := binary.LittleEndian.AppendUint32(nil, 2)
	for _, kv := range [][2]string{{"models/ab12", "weights"}, {"tags/vvd-current", "ab12"}} {
		two = append(two, kvOpPut)
		two = binary.LittleEndian.AppendUint32(two, uint32(len(kv[0])))
		two = append(two, kv[0]...)
		two = binary.LittleEndian.AppendUint32(two, uint32(len(kv[1])))
		two = append(two, kv[1]...)
	}
	log := append(kvSegmentHeader(), kvRecord(kvPutPayload("k1", "value-one"))...)
	log = append(log, kvRecord(two)...)

	flipped := append([]byte(nil), log...)
	flipped[kvSegHdrLen+kvRecHdrLen+6] ^= 0x01
	hostile := binary.LittleEndian.AppendUint32(kvSegmentHeader(), 1<<31)
	hostile = binary.LittleEndian.AppendUint32(hostile, 0)

	return map[string][]byte{
		"empty":          nil,
		"short_header":   kvSegmentHeader()[:3],
		"header_only":    kvSegmentHeader(),
		"foreign_header": []byte("VVDW\x03\x00\x00\x00"),
		"committed":      log,
		"torn_tail":      log[:len(log)-3],
		"zero_tail":      append(append([]byte(nil), log...), make([]byte, 16)...),
		"flipped":        flipped,
		"hostile_length": hostile,
		"delete_record":  append(append([]byte(nil), log...), kvRecord(kvDeletePayload("k1"))...),
	}
}

// FuzzKVReplay opens a directory whose one segment holds arbitrary
// bytes. The open either refuses or replays a prefix of the log: the
// segment it leaves is a prefix of the input (or, below a whole header,
// a fresh header), RecoveryInfo accounts for every dropped byte, and
// every indexed value lies inside what is left. No open panics, and none
// allocates more than a fixed multiple of the file's size, so a hostile
// length claim cannot make recovery allocate what the file does not hold.
func FuzzKVReplay(f *testing.F) {
	for _, seed := range kvFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, "wal-00000001.seg")
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		kv, err := OpenKV(dir, KVOptions{})
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 64*uint64(len(data))+1<<20 {
			t.Fatalf("open allocated %d bytes for a %d-byte segment", grown, len(data))
		}
		if err != nil {
			return
		}
		defer kv.Close()
		left, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		rec := kv.Recovery()
		if len(data) < kvSegHdrLen {
			if !bytes.Equal(left, kvSegmentHeader()) || rec.TruncatedBytes != int64(len(data)) {
				t.Fatalf("short segment left as %x with %d bytes truncated, want a fresh header", left, rec.TruncatedBytes)
			}
		} else if !bytes.HasPrefix(data, left) || rec.TruncatedBytes != int64(len(data)-len(left)) {
			t.Fatalf("recovery left %d of %d bytes, not a prefix, or reported %d truncated", len(left), len(data), rec.TruncatedBytes)
		}
		if (rec.TornTail == nil) != (rec.TruncatedBytes == 0 && len(data) >= kvSegHdrLen) {
			t.Fatalf("TornTail %v disagrees with %d truncated bytes", rec.TornTail, rec.TruncatedBytes)
		}
		for key, e := range kv.index {
			if e.seg != 1 || e.off < kvSegHdrLen || e.off+int64(e.len) > int64(len(left)) {
				t.Fatalf("key %q indexes bytes [%d, %d) of a %d-byte segment", key, e.off, e.off+int64(e.len), len(left))
			}
		}
	})
}

// TestWriteKVFuzzCorpus regenerates the committed seed corpus. Normally
// a no-op; run with VVD_WRITE_FUZZ_CORPUS=1 after changing the segment
// format.
func TestWriteKVFuzzCorpus(t *testing.T) {
	if os.Getenv("VVD_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set VVD_WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz/FuzzKVReplay")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzKVReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range kvFuzzSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, "seed_"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
