// The log-structured persistent KV backend.
//
// Layout: a directory of append-only segment files "wal-%08d.seg".
// Each segment (all integers little-endian):
//
//	u32  magic "VVDL"
//	u32  format version (1)
//	then records, back to back:
//	  u32  payload length N
//	  u32  CRC-32C over the payload
//	  N    bytes payload
//
// A payload is one atomic batch:
//
//	u32  op count
//	per op:
//	  u8   kind (1 = put, 2 = delete)
//	  u32  key length, key bytes
//	  u32  value length, value bytes   (put only)
//
// The write path appends one record per Apply call and fsyncs before
// reporting success — the commit point. The in-memory index maps each
// live key to the byte range of its value inside a segment, so a Get is
// one ReadAt against an immutable region of the log and the index holds
// no values.
//
// One process owns a directory at a time: OpenKV takes an exclusive,
// non-blocking flock on the directory itself and holds it until Close, so
// a second opener (which would replay, and might truncate, a log another
// writer is appending to) is refused. The kernel drops the lock when its
// process dies, so recovery after a crash needs no cleanup. Opening writes
// nothing into a directory that holds no log: the first Apply creates
// segment 1.
//
// Crash recovery (OpenKV) replays segments in order, CRC-checking every
// record. A record that runs past the end of the file, has a truncated
// length prefix, or fails its CRC is a torn tail: legal only as the very
// last record of the last segment — exactly the footprint of a writer
// killed mid-append. Recovery truncates the file at the torn record's
// start (every batch committed before it replays intact), records the
// rejection in RecoveryInfo.TornTail, and the store resumes appending at
// the truncation point. A run of zeros to the end of the last segment
// (a file extended before a killed append's data landed) is a torn tail
// too. The same shapes anywhere else in the log are corruption, not crash
// artifacts, and fail the open.
//
// Segment rotation is atomic by construction: the next segment file is
// created, its header written and fsynced, and the directory fsynced
// before the writer switches over; a crash between any two steps leaves
// either the old tail or an empty-but-valid new segment — both replay
// cleanly. Old segments are never rewritten (compaction is future work;
// deletes are tombstones).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// ErrClosed is returned by operations on a closed KV.
var ErrClosed = errors.New("store: backend is closed")

const (
	kvMagic     = 0x4C445656 // "VVDL"
	kvVersion   = 1
	kvSegHdrLen = 8
	kvRecHdrLen = 8
	maxKVValue  = 1 << 30 // bytes per stored value
	maxKVBatch  = 1 << 16 // ops per batch

	defaultSegmentBytes = 64 << 20
)

var kvCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Op kinds in the WAL payload.
const (
	kvOpPut    = 1
	kvOpDelete = 2
)

// KVOptions tune the WAL engine.
type KVOptions struct {
	// SegmentBytes rotates the active segment once it grows past this
	// size (0 = 64 MiB). Rotation bounds the cost of a future compaction
	// and the blast radius of a corrupt file.
	SegmentBytes int64

	// wrapWriter, when set (tests only), interposes on the active
	// segment's writer — the failpoint seam the crash-recovery harness
	// uses to kill a writer mid-record.
	wrapWriter func(f io.Writer) io.Writer
}

// Op is one operation of an atomic batch.
type Op struct {
	Key string
	Val []byte // ignored for deletes
	Del bool
}

// RecoveryInfo reports what OpenKV found while replaying the log.
type RecoveryInfo struct {
	Segments       int   // segment files scanned
	Records        int   // committed batches replayed
	TornTail       error // non-nil: the last segment ended mid-record (truncated away)
	TruncatedBytes int64 // bytes dropped with the torn tail
}

// kvEntry locates a live value inside the log.
type kvEntry struct {
	seg int
	off int64
	len int
}

// KV is the log-structured persistent store. Apply commits multi-key
// batches atomically. Safe for concurrent use.
type KV struct {
	dir  string
	opts KVOptions
	lock *os.File // the directory, flocked until Close

	mu         sync.Mutex
	index      map[string]kvEntry
	segs       map[int]*os.File // open handles, reads via ReadAt
	active     *os.File
	activeID   int
	activeW    io.Writer // active, possibly wrapped by the failpoint seam
	activeSize int64
	recovery   RecoveryInfo
	wErr       error // first write failure; poisons further writes until reopen
	closed     bool
}

// OpenKV opens (creating if needed) the WAL store in dir, replaying the
// log into the in-memory index. It fails if another open KV, in this
// process or any other, holds dir. See RecoveryInfo for what a reopened
// store found after a crash.
func OpenKV(dir string, opts KVOptions) (*KV, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating wal dir %s: %w", dir, err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	kv := &KV{
		dir:   dir,
		opts:  opts,
		lock:  lock,
		index: make(map[string]kvEntry),
		segs:  make(map[int]*os.File),
	}
	if err := kv.replay(); err != nil {
		kv.Close()
		return nil, err
	}
	return kv, nil
}

// lockDir takes dir's owner lock: an exclusive, non-blocking flock on the
// directory itself. The lock lives as long as the returned file stays open.
func lockDir(dir string) (*os.File, error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("store: opening wal dir %s: %w", dir, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: wal dir %s is held by another open store: %w", dir, err)
	}
	return f, nil
}

// replay rebuilds the index from the segments on disk and activates the
// last one for appending. An empty directory stays empty: the first Apply
// creates segment 1.
func (kv *KV) replay() error {
	ids, err := kv.segmentIDs()
	if err != nil {
		return err
	}
	for i, id := range ids {
		if err := kv.replaySegment(id, i == len(ids)-1); err != nil {
			return err
		}
	}
	kv.recovery.Segments = len(ids)
	if len(ids) == 0 {
		return nil
	}
	last := ids[len(ids)-1]
	f := kv.segs[last]
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("store: seeking wal segment %d: %w", last, err)
	}
	kv.setActive(last, f, size)
	return nil
}

// Recovery reports what the open replay found.
func (kv *KV) Recovery() RecoveryInfo {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.recovery
}

func (kv *KV) segName(id int) string {
	return filepath.Join(kv.dir, fmt.Sprintf("wal-%08d.seg", id))
}

// segmentIDs lists the existing segment files in replay order. Names
// outside the wal-* pattern (such as the LOCK file earlier releases
// flocked) are not segments.
func (kv *KV) segmentIDs() ([]int, error) {
	entries, err := os.ReadDir(kv.dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing wal dir %s: %w", kv.dir, err)
	}
	var ids []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(name, "wal-%08d.seg", &id); err != nil || id <= 0 {
			return nil, fmt.Errorf("store: alien file %s in wal dir %s", name, kv.dir)
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

// setActive installs f as the append target, rebuilding the (possibly
// failpoint-wrapped) writer.
func (kv *KV) setActive(id int, f *os.File, size int64) {
	kv.active, kv.activeID, kv.activeSize = f, id, size
	kv.activeW = io.Writer(f)
	if kv.opts.wrapWriter != nil {
		kv.activeW = kv.opts.wrapWriter(f)
	}
}

// createSegment creates and activates segment id: header written and
// fsynced, directory fsynced, before any record can land in it.
func (kv *KV) createSegment(id int) error {
	name := kv.segName(id)
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating wal segment %s: %w", name, err)
	}
	var hdr [kvSegHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], kvMagic)
	binary.LittleEndian.PutUint32(hdr[4:], kvVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("store: writing wal segment header %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing wal segment %s: %w", name, err)
	}
	syncDir(kv.dir)
	kv.segs[id] = f
	kv.setActive(id, f, kvSegHdrLen)
	return nil
}

// tornTailError describes a torn record for RecoveryInfo.
func tornTailError(name string, off int64, reason string) error {
	return fmt.Errorf("store: torn WAL tail in %s at offset %d rejected: %s", filepath.Base(name), off, reason)
}

// replaySegment scans one segment, committing every valid record to the
// index. On the last segment a torn tail is truncated away; anywhere
// else it is fatal corruption.
func (kv *KV) replaySegment(id int, isLast bool) error {
	name := kv.segName(id)
	f, err := os.OpenFile(name, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening wal segment %s: %w", name, err)
	}
	kv.segs[id] = f
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat wal segment %s: %w", name, err)
	}
	size := info.Size()
	if size < kvSegHdrLen {
		if !isLast {
			return fmt.Errorf("store: wal segment %s has a truncated header mid-log", name)
		}
		// A crash during segment creation: no record can have landed.
		// Rewrite the header and resume appending here.
		kv.recovery.TornTail = tornTailError(name, 0, "truncated segment header")
		kv.recovery.TruncatedBytes += size
		if err := f.Truncate(0); err != nil {
			return fmt.Errorf("store: truncating torn segment %s: %w", name, err)
		}
		var hdr [kvSegHdrLen]byte
		binary.LittleEndian.PutUint32(hdr[0:], kvMagic)
		binary.LittleEndian.PutUint32(hdr[4:], kvVersion)
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			return fmt.Errorf("store: rewriting header of %s: %w", name, err)
		}
		return f.Sync()
	}
	var hdr [kvSegHdrLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("store: reading wal segment header %s: %w", name, err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != kvMagic {
		return fmt.Errorf("store: %s is not a wal segment (magic %08x)", name, got)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != kvVersion {
		return fmt.Errorf("store: wal segment %s has format version %d (this build reads %d)", name, v, kvVersion)
	}

	off := int64(kvSegHdrLen)
	var recHdr [kvRecHdrLen]byte
	var payload []byte
	for off < size {
		// A damaged record is a torn tail only if nothing follows it: each
		// append is fsynced before the next one starts, so a bad record with
		// bytes behind it is damage to committed data, not a killed append.
		torn := func(reason string, atEnd bool) error {
			if !isLast || !atEnd {
				return fmt.Errorf("store: corrupt record mid-log in %s at offset %d (%s): refusing to open", name, off, reason)
			}
			kv.recovery.TornTail = tornTailError(name, off, reason)
			kv.recovery.TruncatedBytes += size - off
			if err := f.Truncate(off); err != nil {
				return fmt.Errorf("store: truncating torn tail of %s: %w", name, err)
			}
			return f.Sync()
		}
		if size-off < kvRecHdrLen {
			return torn("truncated record length prefix", true)
		}
		if _, err := f.ReadAt(recHdr[:], off); err != nil {
			return fmt.Errorf("store: reading record header of %s: %w", name, err)
		}
		payloadLen := int64(binary.LittleEndian.Uint32(recHdr[0:]))
		wantCRC := binary.LittleEndian.Uint32(recHdr[4:])
		if payloadLen == 0 && wantCRC == 0 {
			// Zeros read as an empty record whose CRC matches, but no
			// committed record is empty: a filesystem that extended the
			// file before a killed append's data landed leaves them. A zero
			// run to the end of the file is that torn tail; anything
			// after the zeros is damage.
			zero, err := zeroFrom(f, off, size)
			if err != nil {
				return fmt.Errorf("store: reading record header of %s: %w", name, err)
			}
			return torn("zero-filled record", zero)
		}
		// The length is validated against the bytes actually present
		// before any allocation: a hostile or torn prefix cannot make the
		// replay allocate past the file's own size.
		if payloadLen > size-off-kvRecHdrLen {
			return torn(fmt.Sprintf("record claims %d payload bytes, %d remain", payloadLen, size-off-kvRecHdrLen), true)
		}
		if int64(cap(payload)) < payloadLen {
			payload = make([]byte, payloadLen)
		}
		payload = payload[:payloadLen]
		if _, err := f.ReadAt(payload, off+kvRecHdrLen); err != nil {
			return fmt.Errorf("store: reading record payload of %s: %w", name, err)
		}
		if got := crc32.Checksum(payload, kvCastagnoli); got != wantCRC {
			return torn(fmt.Sprintf("payload checksum mismatch (stored %08x, computed %08x)", wantCRC, got), off+kvRecHdrLen+payloadLen == size)
		}
		if err := kv.replayRecord(id, off+kvRecHdrLen, payload); err != nil {
			// CRC-valid but malformed: a writer bug or a forged file, not
			// a crash artifact — refuse regardless of position.
			return fmt.Errorf("store: invalid record in %s at offset %d: %w", name, off, err)
		}
		kv.recovery.Records++
		off += kvRecHdrLen + payloadLen
	}
	return nil
}

// zeroFrom reports whether bytes [off, size) of f are all zero.
func zeroFrom(f *os.File, off, size int64) (bool, error) {
	buf := make([]byte, min(size-off, 32<<10))
	for off < size {
		n := min(size-off, int64(len(buf)))
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return false, err
		}
		for _, b := range buf[:n] {
			if b != 0 {
				return false, nil
			}
		}
		off += n
	}
	return true, nil
}

// replayRecord applies one CRC-verified batch payload to the index.
// base is the payload's file offset, so value entries can point straight
// into the segment.
func (kv *KV) replayRecord(seg int, base int64, payload []byte) error {
	pos := 0
	take := func(n int) ([]byte, error) {
		if n < 0 || len(payload)-pos < n {
			return nil, fmt.Errorf("payload shorter than encoded lengths claim")
		}
		b := payload[pos : pos+n]
		pos += n
		return b, nil
	}
	b, err := take(4)
	if err != nil {
		return err
	}
	count := int(binary.LittleEndian.Uint32(b))
	if count < 1 || count > maxKVBatch {
		return fmt.Errorf("implausible batch op count %d", count)
	}
	for i := 0; i < count; i++ {
		kindB, err := take(1)
		if err != nil {
			return err
		}
		b, err := take(4)
		if err != nil {
			return err
		}
		keyLen := int(binary.LittleEndian.Uint32(b))
		if keyLen > maxKeyLen {
			return fmt.Errorf("implausible key length %d", keyLen)
		}
		keyB, err := take(keyLen)
		if err != nil {
			return err
		}
		key := string(keyB)
		switch kindB[0] {
		case kvOpPut:
			b, err := take(4)
			if err != nil {
				return err
			}
			valLen := int(binary.LittleEndian.Uint32(b))
			if valLen > maxKVValue {
				return fmt.Errorf("implausible value length %d", valLen)
			}
			valOff := base + int64(pos)
			if _, err := take(valLen); err != nil {
				return err
			}
			kv.index[key] = kvEntry{seg: seg, off: valOff, len: valLen}
		case kvOpDelete:
			delete(kv.index, key)
		default:
			return fmt.Errorf("unknown op kind %d", kindB[0])
		}
	}
	if pos != len(payload) {
		return fmt.Errorf("%d trailing payload bytes", len(payload)-pos)
	}
	return nil
}

// Apply commits a batch of operations atomically: either every op is
// durable and indexed, or (on any failure) none is visible. One WAL
// record per call.
func (kv *KV) Apply(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	if len(ops) > maxKVBatch {
		return fmt.Errorf("store: batch of %d ops exceeds %d", len(ops), maxKVBatch)
	}
	for i := range ops {
		if err := ValidateKey(ops[i].Key); err != nil {
			return err
		}
		if !ops[i].Del && len(ops[i].Val) > maxKVValue {
			return fmt.Errorf("store: value for %q is %d bytes (max %d)", ops[i].Key, len(ops[i].Val), maxKVValue)
		}
	}

	// Encode the payload, remembering where each put's value bytes sit
	// so the index can alias the log after the write commits.
	payload := make([]byte, 0, kvBatchSize(ops))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(ops)))
	valPos := make([]int, len(ops))
	for i := range ops {
		if ops[i].Del {
			payload = append(payload, kvOpDelete)
			payload = binary.LittleEndian.AppendUint32(payload, uint32(len(ops[i].Key)))
			payload = append(payload, ops[i].Key...)
			continue
		}
		payload = append(payload, kvOpPut)
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(ops[i].Key)))
		payload = append(payload, ops[i].Key...)
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(ops[i].Val)))
		valPos[i] = len(payload)
		payload = append(payload, ops[i].Val...)
	}
	record := make([]byte, 0, kvRecHdrLen+len(payload))
	record = binary.LittleEndian.AppendUint32(record, uint32(len(payload)))
	record = binary.LittleEndian.AppendUint32(record, crc32.Checksum(payload, kvCastagnoli))
	record = append(record, payload...)

	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return ErrClosed
	}
	if kv.wErr != nil {
		return fmt.Errorf("store: wal writer poisoned by earlier failure (reopen to recover): %w", kv.wErr)
	}
	if kv.active == nil {
		if err := kv.createSegment(kv.activeID + 1); err != nil {
			return err
		}
	}
	base := kv.activeSize
	if _, err := kv.activeW.Write(record); err != nil {
		// The segment tail is now indeterminate — exactly a crash. Poison
		// the writer; reopening runs torn-tail recovery.
		kv.wErr = err
		return fmt.Errorf("store: appending wal record: %w", err)
	}
	if err := kv.active.Sync(); err != nil {
		kv.wErr = err
		return fmt.Errorf("store: syncing wal record: %w", err)
	}
	// Commit point: the record is durable. Index the batch.
	kv.activeSize += int64(len(record))
	for i := range ops {
		if ops[i].Del {
			delete(kv.index, ops[i].Key)
		} else {
			kv.index[ops[i].Key] = kvEntry{
				seg: kv.activeID,
				off: base + kvRecHdrLen + int64(valPos[i]),
				len: len(ops[i].Val),
			}
		}
	}
	if kv.activeSize >= kv.opts.SegmentBytes {
		if err := kv.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// kvBatchSize pre-sizes the payload buffer for a batch.
func kvBatchSize(ops []Op) int {
	n := 4
	for i := range ops {
		n += 1 + 4 + len(ops[i].Key)
		if !ops[i].Del {
			n += 4 + len(ops[i].Val)
		}
	}
	return n
}

// rotateLocked seals the active segment and activates the next one. The
// old handle stays open for reads.
func (kv *KV) rotateLocked() error {
	if err := kv.active.Sync(); err != nil {
		kv.wErr = err
		return fmt.Errorf("store: syncing wal segment before rotation: %w", err)
	}
	return kv.createSegment(kv.activeID + 1)
}

// PutValue stores one value (a single-op batch).
func (kv *KV) PutValue(key string, val []byte) error {
	return kv.Apply([]Op{{Key: key, Val: val}})
}

// Get returns a copy of the value at key (ErrNotFound if absent), read
// with one ReadAt from the segment that holds it.
func (kv *KV) Get(key string) ([]byte, error) {
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	kv.mu.Lock()
	if kv.closed {
		kv.mu.Unlock()
		return nil, ErrClosed
	}
	e, ok := kv.index[key]
	f := kv.segs[e.seg]
	kv.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	val := make([]byte, e.len)
	if _, err := f.ReadAt(val, e.off); err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", key, err)
	}
	return val, nil
}

// List returns every live key with the given prefix, sorted ("" lists all).
func (kv *KV) List(prefix string) ([]string, error) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return nil, ErrClosed
	}
	var keys []string
	for k := range kv.index {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Close syncs the active segment, releases every file handle and then
// the directory lock. A poisoned writer skips the sync but still
// releases the lock, so the directory can be reopened for recovery.
func (kv *KV) Close() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return nil
	}
	kv.closed = true
	var first error
	if kv.active != nil && kv.wErr == nil {
		if err := kv.active.Sync(); err != nil {
			first = err
		}
	}
	for _, f := range kv.segs {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := kv.lock.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
