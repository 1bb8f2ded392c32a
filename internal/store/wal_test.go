package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func openKVT(t *testing.T, dir string, opts KVOptions) *KV {
	t.Helper()
	kv, err := OpenKV(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return kv
}

func mustGet(t *testing.T, kv *KV, key, want string) {
	t.Helper()
	got, err := kv.Get(key)
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	if string(got) != want {
		t.Fatalf("Get(%s) = %q, want %q", key, got, want)
	}
}

func mustAbsent(t *testing.T, kv *KV, key string) {
	t.Helper()
	if _, err := kv.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(%s) = %v, want ErrNotFound", key, err)
	}
}

func TestKVReopenReplays(t *testing.T) {
	dir := t.TempDir()
	kv := openKVT(t, dir, KVOptions{})
	if err := kv.Apply([]Op{
		{Key: "a", Val: []byte("1")},
		{Key: "b", Val: []byte("2")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := kv.PutValue("a", []byte("1-updated")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv2 := openKVT(t, dir, KVOptions{})
	defer kv2.Close()
	rec := kv2.Recovery()
	if rec.TornTail != nil || rec.TruncatedBytes != 0 {
		t.Fatalf("clean log reported torn tail: %+v", rec)
	}
	if rec.Records != 2 {
		t.Fatalf("replayed %d records, want 2", rec.Records)
	}
	mustGet(t, kv2, "a", "1-updated")
	mustGet(t, kv2, "b", "2")
}

// kvRecord frames a payload as a WAL record (the real CRC unless a
// corruptor rewrites it).
func kvRecord(payload []byte) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, kvCastagnoli))
	return append(rec, payload...)
}

// kvSegmentHeader is the header every segment file starts with.
func kvSegmentHeader() []byte {
	hdr := binary.LittleEndian.AppendUint32(nil, kvMagic)
	return binary.LittleEndian.AppendUint32(hdr, kvVersion)
}

// kvPutPayload encodes a single-put batch payload.
func kvPutPayload(key, val string) []byte {
	p := binary.LittleEndian.AppendUint32(nil, 1)
	p = append(p, kvOpPut)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(key)))
	p = append(p, key...)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(val)))
	return append(p, val...)
}

// kvDeletePayload encodes a single-op batch of kind 2, the delete op
// earlier releases wrote: kind, key, and no value.
func kvDeletePayload(key string) []byte {
	p := binary.LittleEndian.AppendUint32(nil, 1)
	p = append(p, 2)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(key)))
	return append(p, key...)
}

func appendToFile(t testing.TB, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestKVTornTail is the crash-recovery table: every torn-tail footprint a
// killed writer can leave — truncated length prefix, truncated payload,
// corrupted CRC, zeros, torn final record after valid batches — must
// reopen with the committed batches intact, the tail truncated away, and
// the store writable again.
func TestKVTornTail(t *testing.T) {
	cases := []struct {
		name       string
		tear       func(t *testing.T, seg string, committedEnd int64)
		reason     string
		tornKey    string // key whose batch was torn (must be absent), "" if none
		extraBytes int64  // torn bytes appended beyond committedEnd (0 = derive from file)
	}{
		{
			name: "truncated_length_prefix",
			tear: func(t *testing.T, seg string, _ int64) {
				appendToFile(t, seg, []byte{0x21, 0x43, 0x65})
			},
			reason:     "truncated record length prefix",
			extraBytes: 3,
		},
		{
			name: "truncated_payload",
			tear: func(t *testing.T, seg string, _ int64) {
				// Header claims 64 payload bytes; only 10 follow.
				hdr := binary.LittleEndian.AppendUint32(nil, 64)
				hdr = binary.LittleEndian.AppendUint32(hdr, 0xdeadbeef)
				appendToFile(t, seg, append(hdr, "ten bytes."...))
			},
			reason:     "payload bytes",
			extraBytes: 18,
		},
		{
			name: "corrupted_crc",
			tear: func(t *testing.T, seg string, _ int64) {
				// A complete, well-formed record whose stored CRC is wrong —
				// a tail whose payload bytes never all reached the platter.
				rec := kvRecord(kvPutPayload("torn", "lost-value"))
				rec[4] ^= 0xff
				appendToFile(t, seg, rec)
			},
			reason:  "checksum mismatch",
			tornKey: "torn",
		},
		{
			name: "zero_filled_tail",
			tear: func(t *testing.T, seg string, _ int64) {
				// A file extended before the appended bytes landed: the
				// zeros parse as an empty record whose CRC matches.
				appendToFile(t, seg, make([]byte, 64))
			},
			reason:     "zero-filled record",
			extraBytes: 64,
		},
		{
			name: "torn_final_record",
			tear: func(t *testing.T, seg string, _ int64) {
				// Valid header and CRC, but the payload is cut off mid-way.
				payload := kvPutPayload("torn", "half-written-value")
				rec := kvRecord(payload)
				appendToFile(t, seg, rec[:len(rec)-len(payload)/2])
			},
			reason:  "payload bytes",
			tornKey: "torn",
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			kv := openKVT(t, dir, KVOptions{})
			if err := kv.PutValue("k1", []byte("value-one")); err != nil {
				t.Fatal(err)
			}
			if err := kv.PutValue("k2", []byte("value-two")); err != nil {
				t.Fatal(err)
			}
			if err := kv.Close(); err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, "wal-00000001.seg")
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			committedEnd := info.Size()
			c.tear(t, seg, committedEnd)
			tornInfo, _ := os.Stat(seg)
			tornBytes := tornInfo.Size() - committedEnd

			kv2 := openKVT(t, dir, KVOptions{})
			rec := kv2.Recovery()
			if rec.TornTail == nil {
				t.Fatal("recovery reported a clean log over a torn tail")
			}
			if !strings.Contains(rec.TornTail.Error(), c.reason) {
				t.Fatalf("TornTail = %v, want reason %q", rec.TornTail, c.reason)
			}
			if rec.TruncatedBytes != tornBytes {
				t.Fatalf("TruncatedBytes = %d, want %d", rec.TruncatedBytes, tornBytes)
			}
			if rec.Records != 2 {
				t.Fatalf("replayed %d committed batches, want 2", rec.Records)
			}
			mustGet(t, kv2, "k1", "value-one")
			mustGet(t, kv2, "k2", "value-two")
			if c.tornKey != "" {
				mustAbsent(t, kv2, c.tornKey)
			}
			if info, err := os.Stat(seg); err != nil || info.Size() != committedEnd {
				t.Fatalf("segment is %d bytes after recovery, want truncation back to %d", info.Size(), committedEnd)
			}

			// The recovered store must accept and persist new writes.
			if err := kv2.PutValue("k3", []byte("after-recovery")); err != nil {
				t.Fatal(err)
			}
			if err := kv2.Close(); err != nil {
				t.Fatal(err)
			}
			kv3 := openKVT(t, dir, KVOptions{})
			defer kv3.Close()
			if rec := kv3.Recovery(); rec.TornTail != nil || rec.Records != 3 {
				t.Fatalf("second reopen: %+v, want clean with 3 records", rec)
			}
			mustGet(t, kv3, "k1", "value-one")
			mustGet(t, kv3, "k3", "after-recovery")
		})
	}
}

// TestKVMidLogCorruptionIsFatal pins the other half of the recovery
// policy: the torn-tail shapes are forgiven only at the end of the log.
// The same damage mid-log is corruption and must refuse to open.
func TestKVMidLogCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	kv := openKVT(t, dir, KVOptions{segmentBytes: 1}) // rotate after every record
	if err := kv.PutValue("k1", []byte("value-one")); err != nil {
		t.Fatal(err)
	}
	if err := kv.PutValue("k2", []byte("value-two")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the record in segment 1 — not the last segment.
	seg := filepath.Join(dir, "wal-00000001.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenKV(dir, KVOptions{}); err == nil || !strings.Contains(err.Error(), "mid-log") {
		t.Fatalf("OpenKV over mid-log corruption = %v, want refusal", err)
	}

	// The same flip in the first of two records of one (the last)
	// segment: committed data follows it, so it is not a torn tail and
	// the record behind it must not be truncated away.
	dir1 := t.TempDir()
	kv1 := openKVT(t, dir1, KVOptions{})
	if err := kv1.PutValue("k1", []byte("value-one")); err != nil {
		t.Fatal(err)
	}
	if err := kv1.PutValue("k2", []byte("value-two")); err != nil {
		t.Fatal(err)
	}
	if err := kv1.Close(); err != nil {
		t.Fatal(err)
	}
	seg1 := filepath.Join(dir1, "wal-00000001.seg")
	data, err = os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	data[bytes.Index(data, []byte("value-one"))] ^= 0x01
	if err := os.WriteFile(seg1, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenKV(dir1, KVOptions{}); err == nil || !strings.Contains(err.Error(), "mid-log") {
		t.Fatalf("OpenKV over a corrupt record followed by a committed one = %v, want refusal", err)
	}
	if info, err := os.Stat(seg1); err != nil || info.Size() != int64(len(data)) {
		t.Fatalf("refused open changed the segment (stat %+v, %v)", info, err)
	}

	// Zeros followed by anything else are damage too, not a zero-filled
	// torn tail.
	dirZ := t.TempDir()
	kvZ := openKVT(t, dirZ, KVOptions{})
	if err := kvZ.PutValue("k1", []byte("value-one")); err != nil {
		t.Fatal(err)
	}
	if err := kvZ.Close(); err != nil {
		t.Fatal(err)
	}
	appendToFile(t, filepath.Join(dirZ, "wal-00000001.seg"), append(make([]byte, 64), 0x01))
	if _, err := OpenKV(dirZ, KVOptions{}); err == nil || !strings.Contains(err.Error(), "mid-log") {
		t.Fatalf("OpenKV over zeros followed by data = %v, want refusal", err)
	}

	// A CRC-valid but malformed record is a writer bug, not a crash
	// artifact: fatal even as the last record.
	dir2 := t.TempDir()
	kv2 := openKVT(t, dir2, KVOptions{})
	if err := kv2.PutValue("k1", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := kv2.Close(); err != nil {
		t.Fatal(err)
	}
	bogus := binary.LittleEndian.AppendUint32(nil, 9999) // op count with nothing behind it
	appendToFile(t, filepath.Join(dir2, "wal-00000001.seg"), kvRecord(bogus))
	if _, err := OpenKV(dir2, KVOptions{}); err == nil || !strings.Contains(err.Error(), "invalid record") {
		t.Fatalf("OpenKV over a forged record = %v, want refusal", err)
	}
}

// TestKVDeleteRecordRefused pins what replay does with a delete record
// (op kind 2), which the store no longer writes: a CRC-valid record
// holding one is an unknown op, so the open is refused, not replayed
// with the key dropped.
func TestKVDeleteRecordRefused(t *testing.T) {
	dir := t.TempDir()
	log := kvSegmentHeader()
	log = append(log, kvRecord(kvPutPayload("k", "v"))...)
	log = append(log, kvRecord(kvDeletePayload("k"))...)
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenKV(dir, KVOptions{})
	if err == nil || !strings.Contains(err.Error(), "invalid record") || !strings.Contains(err.Error(), "unknown op kind 2") {
		t.Fatalf("OpenKV over a delete record = %v, want an invalid-record refusal", err)
	}
}

func TestKVTruncatedSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	kv := openKVT(t, dir, KVOptions{segmentBytes: 1})
	if err := kv.PutValue("k1", []byte("value-one")); err != nil {
		t.Fatal(err) // rotation creates segment 2 right after this commit
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash during creation of segment 2: only part of its header landed.
	seg2 := filepath.Join(dir, "wal-00000002.seg")
	if err := os.Truncate(seg2, 3); err != nil {
		t.Fatal(err)
	}
	kv2 := openKVT(t, dir, KVOptions{})
	defer kv2.Close()
	rec := kv2.Recovery()
	if rec.TornTail == nil || !strings.Contains(rec.TornTail.Error(), "truncated segment header") {
		t.Fatalf("TornTail = %v, want truncated segment header", rec.TornTail)
	}
	mustGet(t, kv2, "k1", "value-one")
	if err := kv2.PutValue("k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, kv2, "k2", "v2")
}

func TestKVAlienFileRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-junk.seg"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Twice: a refused open must release the directory lock on its way
	// out, or the second attempt would report a held lock instead.
	for i := 0; i < 2; i++ {
		if _, err := OpenKV(dir, KVOptions{}); err == nil || !strings.Contains(err.Error(), "alien file") {
			t.Fatalf("OpenKV #%d = %v, want alien-file refusal", i+1, err)
		}
	}
}

func TestKVSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	kv := openKVT(t, dir, KVOptions{segmentBytes: 1}) // every commit rotates
	const n = 5
	for i := 0; i < n; i++ {
		if err := kv.PutValue(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Values written before rotations stay readable through the sealed
	// segments' retained handles.
	for i := 0; i < n; i++ {
		mustGet(t, kv, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= n+1; id++ {
		p := filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", id))
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("expected segment %d: %v", id, err)
		}
	}
	kv2 := openKVT(t, dir, KVOptions{})
	defer kv2.Close()
	rec := kv2.Recovery()
	if rec.Segments != n+1 || rec.Records != n || rec.TornTail != nil {
		t.Fatalf("recovery over rotated log: %+v", rec)
	}
	for i := 0; i < n; i++ {
		mustGet(t, kv2, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
}

// killWriter is the failpoint the crash-recovery harness injects: it
// forwards writes until its byte budget runs out, then persists only a
// prefix of the fatal write and fails — the exact footprint of a process
// killed mid-append.
type killWriter struct {
	mu     sync.Mutex
	w      io.Writer
	budget int
	killed bool
}

var errKilled = errors.New("simulated crash: writer killed mid-record")

func (k *killWriter) Write(p []byte) (int, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.killed {
		return 0, errKilled
	}
	if k.budget >= len(p) {
		k.budget -= len(p)
		return k.w.Write(p)
	}
	n := k.budget
	k.killed = true
	if n > 0 {
		if _, err := k.w.Write(p[:n]); err != nil {
			return 0, err
		}
	}
	return n, errKilled
}

// TestKVKillMidWrite kills the writer partway through a record and pins
// crash semantics end to end: every batch whose Apply returned success is
// replayed intact after reopen, the killed batch is invisible, and the
// recovered store writes normally again.
func TestKVKillMidWrite(t *testing.T) {
	dir := t.TempDir()
	var kw *killWriter
	opts := KVOptions{wrapWriter: func(f io.Writer) io.Writer {
		kw = &killWriter{w: f, budget: 150} // dies inside the 3rd or 4th record
		return kw
	}}
	kv := openKVT(t, dir, opts)
	var committed []string
	var killedAt = -1
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("key-%d", i)
		err := kv.PutValue(key, bytes.Repeat([]byte{byte('a' + i)}, 20))
		if err != nil {
			if !errors.Is(err, errKilled) {
				t.Fatalf("put %d failed with %v, want the injected kill", i, err)
			}
			killedAt = i
			break
		}
		committed = append(committed, key)
	}
	if killedAt < 0 {
		t.Fatal("budget never exhausted; failpoint misconfigured")
	}
	if !kw.killed {
		t.Fatal("writer reported an error without the failpoint firing")
	}
	// The writer is poisoned: even an in-budget retry must refuse rather
	// than append after an indeterminate tail.
	if err := kv.PutValue("after-kill", []byte("x")); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("write after kill = %v, want poisoned-writer refusal", err)
	}
	// Abandon the handle as a crashed process would (no Close bookkeeping).
	_ = kv.Close()

	kv2 := openKVT(t, dir, KVOptions{})
	rec := kv2.Recovery()
	if rec.Records != len(committed) {
		t.Fatalf("replayed %d batches, want the %d that committed", rec.Records, len(committed))
	}
	if rec.TornTail == nil {
		t.Fatal("a mid-record kill must surface as a torn tail")
	}
	for i, key := range committed {
		mustGet(t, kv2, key, strings.Repeat(string(rune('a'+i)), 20))
	}
	mustAbsent(t, kv2, fmt.Sprintf("key-%d", killedAt))
	if err := kv2.PutValue("post-recovery", []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if err := kv2.Close(); err != nil {
		t.Fatal(err)
	}
	kv3 := openKVT(t, dir, KVOptions{})
	defer kv3.Close()
	if rec := kv3.Recovery(); rec.TornTail != nil {
		t.Fatalf("third open found damage after a clean recovery cycle: %v", rec.TornTail)
	}
	mustGet(t, kv3, "post-recovery", "alive")
}

// TestKVKillUnderConcurrency runs many writers into the failpoint (the
// -race half of the harness): whatever interleaving loses the race, the
// reopened store must hold exactly the successfully-committed writes.
func TestKVKillUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	opts := KVOptions{wrapWriter: func(f io.Writer) io.Writer {
		return &killWriter{w: f, budget: 700}
	}}
	kv := openKVT(t, dir, opts)
	var mu sync.Mutex
	committed := map[string]string{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				key := fmt.Sprintf("g%d/k%d", g, i)
				val := fmt.Sprintf("value-%d-%d", g, i)
				if err := kv.PutValue(key, []byte(val)); err == nil {
					mu.Lock()
					committed[key] = val
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	_ = kv.Close()

	kv2 := openKVT(t, dir, KVOptions{})
	defer kv2.Close()
	rec := kv2.Recovery()
	if rec.Records != len(committed) {
		t.Fatalf("replayed %d batches, want %d committed", rec.Records, len(committed))
	}
	if len(committed) == 0 {
		t.Fatal("failpoint killed the very first write; nothing exercised")
	}
	for key, val := range committed {
		mustGet(t, kv2, key, val)
	}
	keys, err := kv2.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(committed) {
		t.Fatalf("store holds %d keys, want exactly the %d committed", len(keys), len(committed))
	}
}

// TestKVLockOneOwner pins the directory's single owner: while one KV is
// open, a second OpenKV on the same directory (here from the same
// process, through a separate open file description) is refused with an
// error naming the directory; after Close it succeeds. A refused open
// replays nothing, so it cannot truncate the owner's log.
func TestKVLockOneOwner(t *testing.T) {
	dir := t.TempDir()
	kv := openKVT(t, dir, KVOptions{})
	if err := kv.PutValue("models/x", bytes.Repeat([]byte("A"), 100)); err != nil {
		t.Fatal(err)
	}
	if second, err := OpenKV(dir, KVOptions{}); err == nil {
		second.Close()
		t.Fatal("second OpenKV on a live directory succeeded")
	} else if !strings.Contains(err.Error(), dir) {
		t.Fatalf("second OpenKV error %q does not name the directory %s", err, dir)
	}
	mustGet(t, kv, "models/x", strings.Repeat("A", 100))
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv2 := openKVT(t, dir, KVOptions{})
	defer kv2.Close()
	if rec := kv2.Recovery(); rec.Records != 1 || rec.TornTail != nil {
		t.Fatalf("reopen after Close: %+v, want 1 clean record", rec)
	}
	mustGet(t, kv2, "models/x", strings.Repeat("A", 100))
}

// TestKVOpenWritesNothing pins that a reader leaves a directory as it
// found it: opening, reading and closing a KV over an empty directory
// creates no file, so neither does a registry reader given one. The first
// Apply creates segment 1 through the rotation path.
func TestKVOpenWritesNothing(t *testing.T) {
	dir := t.TempDir()
	kv := openKVT(t, dir, KVOptions{})
	mustAbsent(t, kv, "tags/x")
	if keys, err := kv.List(""); err != nil || len(keys) != 0 {
		t.Fatalf("List on an empty store = %v, %v", keys, err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("open/close of an empty store left %v (%v)", entries, err)
	}

	kv = openKVT(t, dir, KVOptions{})
	if err := kv.PutValue("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != "wal-00000001.seg" {
		t.Fatalf("after the first Apply the directory holds %v (%v), want wal-00000001.seg only", entries, err)
	}
	kv = openKVT(t, dir, KVOptions{})
	defer kv.Close()
	mustGet(t, kv, "k1", "v1")
}

// ---- benchmarks: the durability price list EXPERIMENTS.md pins ----

func BenchmarkStorePut(b *testing.B) {
	const valSize = 4096
	kv, err := OpenKV(b.TempDir(), KVOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer kv.Close()
	val := bytes.Repeat([]byte("v"), valSize)
	b.SetBytes(valSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kv.PutValue(fmt.Sprintf("bench/k%03d", i%128), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVReplay reopens a log of 1,000 single-put records of 4 KiB.
// The segment is written directly (the writer's header and framing,
// without a thousand fsyncs to build the fixture).
func BenchmarkKVReplay(b *testing.B) {
	dir := b.TempDir()
	val := strings.Repeat("v", 4096)
	const keys = 1000
	log := kvSegmentHeader()
	for i := 0; i < keys; i++ {
		log = append(log, kvRecord(kvPutPayload(fmt.Sprintf("k%04d", i), val))...)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), log, 0o644); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv, err := OpenKV(dir, KVOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if kv.Recovery().Records != keys {
			b.Fatal("short replay")
		}
		kv.Close()
	}
}
