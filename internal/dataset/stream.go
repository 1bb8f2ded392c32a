// Campaign store: the VVD2 family, a versioned, checksummed, streaming
// container.
//
// Layout (all integers little-endian):
//
//	header:
//	  u32  magic "VVD2" (0x32445656)
//	  u32  format version (3, the only layout this build reads or writes)
//	  u32  config length N
//	  N    bytes: the complete Config as JSON (self-describing: every
//	       field that shapes reception regeneration travels with the file)
//	  u32  set count
//	  u32  CRC-32C over every preceding header byte
//	per set, in file order:
//	  u32  set index (1-based)
//	  u32  packet count
//	  u64  payload length P
//	  P    bytes: packets, bulk-encoded (see appendPacket); every float
//	       array (CIR vector, image) is preceded by zero padding to an
//	       8-byte boundary relative to the payload start
//	  u32  CRC-32C over the 16 set-header bytes plus the payload
//
// The alignment padding is what lets the decoder hand out CIR vectors and
// images that alias the set's payload buffer directly (zero copy, zero
// per-array allocation) on little-endian machines — see cursor.
//
// The per-set framing is what makes the store streamable: a Reader decodes
// only the sets a caller keeps and skips the rest by their payload length
// without decoding a single packet — which is also how `vvd-dataset
// -inspect` verifies checksums without decoding.
//
// Versioning/compat policy: the magic word selects the decoder family
// (only VVD2 is decoded; the retired v1 magic is refused by name), the
// version field gates layout changes within this family (the retired v2
// layout, which lacked the per-packet extra-occupant positions, is refused
// by name too), and the JSON config tolerates unknown fields so adding a
// Config field is not a format break. Save always writes the newest
// version.

package dataset

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"

	"vvd/internal/room"
)

// nativeLittleEndian reports whether this machine's memory order matches
// the on-disk little-endian layout. When it does (amd64, arm64, …), the
// float payload codecs degenerate to memcpy: a typed slice is viewed as
// raw bytes through unsafe.Slice — always via the typed side's own backing
// array, so alignment is preserved and the conversion is checkptr-clean —
// and copied in one pass instead of one Float{32,64}bits round trip per
// value. Big-endian machines fall back to the portable per-value loop.
var nativeLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// f32Bytes returns the raw byte view of a float32 slice (len > 0).
func f32Bytes(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

// c128Bytes returns the raw byte view of a complex128 slice (len > 0); the
// in-memory layout (real then imaginary float64 per element) matches the
// on-disk interleaving.
func c128Bytes(v []complex128) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 16*len(v))
}

// campaignMagicV2 identifies the VVD2 container family ("VVD2"). The
// retired version 2 and the current version 3 share this magic; the
// header's version field tells them apart.
const campaignMagicV2 = 0x32445656

// campaignVersion is the layout revision written by Save.
const campaignVersion = 3

// minReadVersion is the oldest VVD2-family layout this build decodes.
const minReadVersion = 3

// retiredLayoutVersion is the VVD2-family layout without per-packet
// extra-occupant positions. It is recognised only so OpenCampaign can
// name it when refusing the file.
const retiredLayoutVersion = 2

// Decoder sanity limits: corrupt or hostile length fields are rejected
// before any allocation larger than these bounds.
const (
	maxCIRLen        = 4096       // complex taps per stored vector
	maxImagePixels   = 10_000_000 // float32 pixels per depth image
	maxPacketsPerSet = 1_000_000  // packets in one measurement set
	maxSets          = 65535      // sets per campaign
	maxSetPayload    = 1 << 30    // bytes of one set's encoded packets
	maxConfigJSON    = 1 << 20    // bytes of the serialized Config
	maxOccupants     = 64         // occupants per campaign (Config + per-packet positions)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer streams a campaign to disk set-at-a-time. The header
// is written on construction; call WriteSet once per measurement set and
// Close to flush. Peak memory is one encoded set.
type Writer struct {
	bw       *bufio.Writer
	declared int
	written  int
	seen     []bool // set indices already written; readers reject duplicates
	buf      []byte
	closed   bool
}

// NewWriter writes the header for a campaign with the given
// configuration and set count, returning a Writer for the set payloads.
func NewWriter(w io.Writer, cfg Config, sets int) (*Writer, error) {
	if sets < 0 || sets > maxSets {
		return nil, fmt.Errorf("dataset: campaign set count %d outside [0,%d]", sets, maxSets)
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("dataset: serializing config: %w", err)
	}
	if len(cfgJSON) > maxConfigJSON {
		return nil, fmt.Errorf("dataset: serialized config is %d bytes (max %d)", len(cfgJSON), maxConfigJSON)
	}
	sw := &Writer{bw: bufio.NewWriterSize(w, 1<<16), declared: sets, seen: make([]bool, sets)}
	hdr := appendU32(nil, campaignMagicV2)
	hdr = appendU32(hdr, campaignVersion)
	hdr = appendU32(hdr, uint32(len(cfgJSON)))
	hdr = append(hdr, cfgJSON...)
	hdr = appendU32(hdr, uint32(sets))
	hdr = appendU32(hdr, crc32.Checksum(hdr, castagnoli))
	if _, err := sw.bw.Write(hdr); err != nil {
		return nil, err
	}
	return sw, nil
}

// WriteSet encodes and appends one measurement set.
func (w *Writer) WriteSet(s *Set) error {
	if w.closed {
		return fmt.Errorf("dataset: WriteSet on closed Writer")
	}
	if w.written >= w.declared {
		return fmt.Errorf("dataset: campaign declared %d sets, got more", w.declared)
	}
	if s.Index < 1 || s.Index > w.declared {
		return fmt.Errorf("dataset: set index %d outside [1,%d]", s.Index, w.declared)
	}
	if w.seen[s.Index-1] {
		return fmt.Errorf("dataset: set index %d written twice", s.Index)
	}
	w.seen[s.Index-1] = true
	if len(s.Packets) > maxPacketsPerSet {
		return fmt.Errorf("dataset: set %d has %d packets (max %d)", s.Index, len(s.Packets), maxPacketsPerSet)
	}
	// Encode the 16-byte set header with a payload-length placeholder, then
	// the packets, then patch the length in.
	b := w.buf[:0]
	b = appendU32(b, uint32(s.Index))
	b = appendU32(b, uint32(len(s.Packets)))
	b = appendU64(b, 0)
	var err error
	for i := range s.Packets {
		if b, err = appendPacket(b, &s.Packets[i]); err != nil {
			return fmt.Errorf("dataset: set %d: %w", s.Index, err)
		}
	}
	payload := uint64(len(b) - 16)
	if payload > maxSetPayload {
		return fmt.Errorf("dataset: set %d payload is %d bytes (max %d)", s.Index, payload, maxSetPayload)
	}
	binary.LittleEndian.PutUint64(b[8:], payload)
	b = appendU32(b, crc32.Checksum(b, castagnoli))
	w.buf = b
	if _, err := w.bw.Write(b); err != nil {
		return err
	}
	w.written++
	return nil
}

// Close flushes the stream and verifies every declared set was written.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.written != w.declared {
		return fmt.Errorf("dataset: campaign declared %d sets, wrote %d", w.declared, w.written)
	}
	return w.bw.Flush()
}

// SetInfo describes one stored set without decoding its packets.
type SetInfo struct {
	Index        int
	Packets      int
	PayloadBytes int64
	CRCOK        bool
}

// Reader streams a stored campaign. Obtain one with OpenCampaign; the
// header (config, set count) is available immediately, and ReadSets or
// Inspect then walks the sets once.
type Reader struct {
	br      *bufio.Reader
	version int
	cfg     Config
	numSets int
	read    int // set records consumed from the stream
	buf     []byte
}

// OpenCampaign reads and validates a v3 campaign header from r.
func OpenCampaign(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("dataset: reading campaign magic: %w", err)
	}
	switch binary.LittleEndian.Uint32(magic[:]) {
	case campaignMagicV2:
		// the VVD2 header follows
	case campaignMagicV1:
		return nil, fmt.Errorf("dataset: campaign is in the retired v1 format, which this build no longer reads; regenerate it with vvd-dataset")
	default:
		return nil, fmt.Errorf("dataset: bad campaign magic")
	}
	hdr := append([]byte(nil), magic[:]...)
	var fixed [8]byte
	if _, err := io.ReadFull(br, fixed[:]); err != nil {
		return nil, fmt.Errorf("dataset: truncated campaign header: %w", err)
	}
	hdr = append(hdr, fixed[:]...)
	version := binary.LittleEndian.Uint32(fixed[0:])
	cfgLen := binary.LittleEndian.Uint32(fixed[4:])
	if version == retiredLayoutVersion {
		return nil, fmt.Errorf("dataset: campaign is in the retired v2 layout, which this build no longer reads; regenerate it with vvd-dataset")
	}
	if version < minReadVersion || version > campaignVersion {
		return nil, fmt.Errorf("dataset: campaign format version %d (this build reads %d-%d) — written by a newer tool?", version, minReadVersion, campaignVersion)
	}
	if cfgLen > maxConfigJSON {
		return nil, fmt.Errorf("dataset: implausible config length %d", cfgLen)
	}
	cfgJSON := make([]byte, cfgLen)
	if _, err := io.ReadFull(br, cfgJSON); err != nil {
		return nil, fmt.Errorf("dataset: truncated campaign config: %w", err)
	}
	hdr = append(hdr, cfgJSON...)
	var tail [8]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, fmt.Errorf("dataset: truncated campaign header: %w", err)
	}
	hdr = append(hdr, tail[:4]...)
	numSets := binary.LittleEndian.Uint32(tail[0:])
	wantCRC := binary.LittleEndian.Uint32(tail[4:])
	if got := crc32.Checksum(hdr, castagnoli); got != wantCRC {
		return nil, fmt.Errorf("dataset: campaign header checksum mismatch (stored %08x, computed %08x)", wantCRC, got)
	}
	if numSets > maxSets {
		return nil, fmt.Errorf("dataset: implausible set count %d", numSets)
	}
	var cfg Config
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return nil, fmt.Errorf("dataset: decoding campaign config: %w", err)
	}
	return &Reader{br: br, version: int(version), cfg: cfg, numSets: int(numSets)}, nil
}

// Version reports the on-disk format version (3: older layouts are
// refused by OpenCampaign).
func (r *Reader) Version() int { return r.version }

// Config returns the stored campaign configuration.
func (r *Reader) Config() Config { return r.cfg }

// NumSets returns the number of stored measurement sets.
func (r *Reader) NumSets() int { return r.numSets }

// shell rebuilds the simulation environment for the stored configuration:
// a Campaign whose Sets slice has one empty placeholder per stored set,
// against which receptions regenerate (ReceptionPacket).
func (r *Reader) shell() (*Campaign, error) {
	c, err := rebuildShell(r.cfg)
	if err != nil {
		return nil, err
	}
	c.Sets = make([]Set, r.numSets)
	for i := range c.Sets {
		c.Sets[i].Index = i + 1
	}
	return c, nil
}

// setHeader is the decoded 16-byte per-set framing plus its raw bytes
// (needed to continue the CRC over header and payload).
type setHeader struct {
	index   int
	packets int
	payload uint64
	raw     [16]byte
}

// readSetHeader consumes the next set's framing. Returns io.EOF once every
// declared set has been consumed; a short read mid-stream is an error.
func (r *Reader) readSetHeader() (setHeader, error) {
	var hdr setHeader
	if r.read >= r.numSets {
		return hdr, io.EOF
	}
	if _, err := io.ReadFull(r.br, hdr.raw[:]); err != nil {
		return hdr, fmt.Errorf("dataset: truncated set header: %w", err)
	}
	r.read++
	hdr.index = int(binary.LittleEndian.Uint32(hdr.raw[0:]))
	hdr.packets = int(binary.LittleEndian.Uint32(hdr.raw[4:]))
	hdr.payload = binary.LittleEndian.Uint64(hdr.raw[8:])
	if hdr.index < 1 || hdr.index > r.numSets {
		return hdr, fmt.Errorf("dataset: set index %d outside [1,%d]", hdr.index, r.numSets)
	}
	if hdr.packets > maxPacketsPerSet {
		return hdr, fmt.Errorf("dataset: implausible packet count %d in set %d", hdr.packets, hdr.index)
	}
	if hdr.payload > maxSetPayload {
		return hdr, fmt.Errorf("dataset: implausible payload length %d in set %d", hdr.payload, hdr.index)
	}
	return hdr, nil
}

// decodeBody reads, CRC-checks and decodes one set's payload. On
// little-endian machines the decoded float arrays alias the payload buffer
// (see cursor), so a fresh buffer is allocated per set and handed to the
// decoded Set as backing store; the portable fallback reuses r.buf.
func (r *Reader) decodeBody(hdr setHeader) (*Set, error) {
	need := int(hdr.payload)
	var payload []byte
	alias := nativeLittleEndian && need > 0
	if alias {
		payload = make([]byte, need)
		if uintptr(unsafe.Pointer(&payload[0]))%8 != 0 {
			alias = false // allocator gave an unaligned base; decode by copy
		}
	} else {
		if cap(r.buf) < need {
			r.buf = make([]byte, need)
		}
		payload = r.buf[:need]
	}
	// Interleave the read with the CRC in cache-sized chunks: checksumming
	// right after each chunk lands reads hot cache lines instead of
	// re-walking the whole (cold) payload in a second pass.
	got := crc32.Checksum(hdr.raw[:], castagnoli)
	for off := 0; off < need; {
		end := off + 1<<19
		if end > need {
			end = need
		}
		if _, err := io.ReadFull(r.br, payload[off:end]); err != nil {
			return nil, fmt.Errorf("dataset: truncated payload of set %d: %w", hdr.index, err)
		}
		got = crc32.Update(got, castagnoli, payload[off:end])
		off = end
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r.br, trailer[:]); err != nil {
		return nil, fmt.Errorf("dataset: truncated checksum of set %d: %w", hdr.index, err)
	}
	wantCRC := binary.LittleEndian.Uint32(trailer[:])
	if got != wantCRC {
		return nil, fmt.Errorf("dataset: set %d checksum mismatch (stored %08x, computed %08x)", hdr.index, wantCRC, got)
	}
	set := &Set{Index: hdr.index, Packets: make([]Packet, hdr.packets)}
	cur := cursor{data: payload, alias: alias}
	for k := range set.Packets {
		if err := decodePacket(&cur, &set.Packets[k]); err != nil {
			return nil, fmt.Errorf("dataset: set %d packet %d: %w", hdr.index, k, err)
		}
	}
	if cur.off != len(payload) {
		return nil, fmt.Errorf("dataset: set %d has %d trailing payload bytes", hdr.index, len(payload)-cur.off)
	}
	return set, nil
}

// skipBody discards one set's payload and checksum without decoding.
func (r *Reader) skipBody(hdr setHeader) error {
	left := hdr.payload + 4
	for left > 0 {
		chunk := left
		if chunk > 1<<20 {
			chunk = 1 << 20
		}
		n, err := r.br.Discard(int(chunk))
		left -= uint64(n)
		if err != nil {
			return fmt.Errorf("dataset: truncated payload of set %d: %w", hdr.index, err)
		}
	}
	return nil
}

// verifyBody streams one set's payload through the CRC without decoding,
// reporting whether the stored checksum matches.
func (r *Reader) verifyBody(hdr setHeader) (bool, error) {
	if cap(r.buf) < 1<<16 {
		r.buf = make([]byte, 1<<16)
	}
	scratch := r.buf[:1<<16]
	sum := crc32.Checksum(hdr.raw[:], castagnoli)
	left := hdr.payload
	for left > 0 {
		chunk := uint64(len(scratch))
		if chunk > left {
			chunk = left
		}
		n, err := io.ReadFull(r.br, scratch[:chunk])
		if err != nil {
			return false, fmt.Errorf("dataset: truncated payload of set %d: %w", hdr.index, err)
		}
		sum = crc32.Update(sum, castagnoli, scratch[:n])
		left -= uint64(n)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r.br, trailer[:]); err != nil {
		return false, fmt.Errorf("dataset: truncated checksum of set %d: %w", hdr.index, err)
	}
	return binary.LittleEndian.Uint32(trailer[:]) == sum, nil
}

// ReadSets materializes the remaining sets into a full Campaign. A non-nil
// keep predicate selects which set indices to decode; the rest are skipped
// and left as empty placeholders, so e.g. a training run can stream in
// only a combination's training+validation sets. keep == nil decodes all.
func (r *Reader) ReadSets(keep func(setID int) bool) (*Campaign, error) {
	c, err := r.shell()
	if err != nil {
		return nil, err
	}
	seen := make([]bool, r.numSets)
	for {
		hdr, err := r.readSetHeader()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if seen[hdr.index-1] {
			return nil, fmt.Errorf("dataset: duplicate set %d in stream", hdr.index)
		}
		seen[hdr.index-1] = true
		if keep != nil && !keep(hdr.index) {
			if err := r.skipBody(hdr); err != nil {
				return nil, err
			}
			continue
		}
		set, err := r.decodeBody(hdr)
		if err != nil {
			return nil, err
		}
		c.Sets[hdr.index-1] = *set
	}
	return c, nil
}

// Inspect walks the remaining sets verifying framing and checksums without
// decoding any packet, and returns one SetInfo per set.
func (r *Reader) Inspect() ([]SetInfo, error) {
	var out []SetInfo
	for {
		hdr, err := r.readSetHeader()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		ok, err := r.verifyBody(hdr)
		if err != nil {
			return nil, err
		}
		out = append(out, SetInfo{
			Index:        hdr.index,
			Packets:      hdr.packets,
			PayloadBytes: int64(hdr.payload),
			CRCOK:        ok,
		})
	}
}

// ---------------------------------------------------------------------------
// bulk packet codec

// appendU32/appendU64/appendF64 are the little-endian append primitives.
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// growBy extends b by n bytes and returns the slice; the new bytes are the
// caller's to fill.
func growBy(b []byte, n int) []byte {
	return slices.Grow(b, n)[:len(b)+n]
}

var padZeros [8]byte

// appendAlign8 pads b with zeros to the next 8-byte boundary. WriteSet
// encodes the (16-byte, hence boundary-preserving) set header into the
// same buffer, so alignment here equals alignment relative to the payload
// start, which is what the decoder's align8 mirrors.
func appendAlign8(b []byte) []byte {
	if pad := (8 - len(b)%8) % 8; pad > 0 {
		b = append(b, padZeros[:pad]...)
	}
	return b
}

// appendCVec bulk-encodes a complex vector as a length prefix plus
// interleaved real/imaginary float64 pairs — one buffer write instead of
// one reflective binary.Write per float.
func appendCVec(b []byte, v []complex128) ([]byte, error) {
	if len(v) > maxCIRLen {
		return nil, fmt.Errorf("CIR vector has %d taps (max %d)", len(v), maxCIRLen)
	}
	b = appendU32(b, uint32(len(v)))
	if len(v) == 0 {
		return b, nil
	}
	b = appendAlign8(b)
	off := len(b)
	b = growBy(b, 16*len(v))
	dst := b[off:]
	if nativeLittleEndian {
		copy(dst, c128Bytes(v))
		return b, nil
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(dst[16*i:], math.Float64bits(real(x)))
		binary.LittleEndian.PutUint64(dst[16*i+8:], math.Float64bits(imag(x)))
	}
	return b, nil
}

// appendImage bulk-encodes one depth image as a length prefix plus raw
// float32 pixels.
func appendImage(b []byte, img []float32) ([]byte, error) {
	if len(img) > maxImagePixels {
		return nil, fmt.Errorf("image has %d pixels (max %d)", len(img), maxImagePixels)
	}
	b = appendU32(b, uint32(len(img)))
	if len(img) == 0 {
		return b, nil
	}
	b = appendAlign8(b)
	off := len(b)
	b = growBy(b, 4*len(img))
	dst := b[off:]
	if nativeLittleEndian {
		copy(dst, f32Bytes(img))
		return b, nil
	}
	for i, v := range img {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
	return b, nil
}

// appendOthers encodes the extra-occupant positions: a count prefix plus
// three float64 coordinates per occupant.
func appendOthers(b []byte, others []room.Vec3) ([]byte, error) {
	if len(others) > maxOccupants-1 {
		return nil, fmt.Errorf("packet records %d extra occupants (max %d)", len(others), maxOccupants-1)
	}
	b = appendU32(b, uint32(len(others)))
	for _, o := range others {
		b = appendF64(b, o.X)
		b = appendF64(b, o.Y)
		b = appendF64(b, o.Z)
	}
	return b, nil
}

// appendPacket encodes one packet into b (always in the newest layout).
func appendPacket(b []byte, p *Packet) ([]byte, error) {
	b = appendU32(b, uint32(p.Index))
	b = appendU32(b, uint32(p.SeqNum))
	b = appendU64(b, p.LinkSeed)
	var flags byte
	if p.PreambleDetected {
		flags |= 1
	}
	b = append(b, flags)
	for _, f := range [...]float64{p.Time, p.Pos.X, p.Pos.Y, p.Pos.Z, p.SyncPeak} {
		b = appendF64(b, f)
	}
	var err error
	if b, err = appendOthers(b, p.Others); err != nil {
		return nil, err
	}
	for _, vec := range [...][]complex128{p.TrueCIR, p.Perfect, p.PerfectAligned, p.PreambleEst} {
		if b, err = appendCVec(b, vec); err != nil {
			return nil, err
		}
	}
	for lag := ImageLag(0); lag < numLags; lag++ {
		if b, err = appendImage(b, p.Images[lag]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// cursor decodes from a CRC-verified payload buffer. Every read is bounds-
// checked against the remaining payload before any allocation, so corrupt
// length fields (which the CRC already makes vanishingly unlikely) cannot
// trigger oversized allocations.
//
// When alias is set (native little-endian machine, 8-byte-aligned payload
// buffer), float arrays are returned as typed views directly into the
// payload — the format's alignment padding makes every array start on an
// 8-byte boundary, so the unsafe.Slice conversions are alignment-correct
// (and checkptr-clean under -race). The decoded set then shares the
// payload buffer as backing store: holding any one vector keeps the whole
// set's payload alive, which matches how the pipeline consumes sets.
type cursor struct {
	data  []byte
	off   int
	alias bool
}

var errShortPayload = fmt.Errorf("payload shorter than encoded lengths claim")

func (c *cursor) take(n int) ([]byte, error) {
	if n < 0 || len(c.data)-c.off < n {
		return nil, errShortPayload
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, nil
}

// align8 consumes the writer's padding to the next 8-byte boundary.
func (c *cursor) align8() error {
	if pad := (8 - c.off%8) % 8; pad > 0 {
		_, err := c.take(pad)
		return err
	}
	return nil
}

func (c *cursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *cursor) u64() (uint64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (c *cursor) f64() (float64, error) {
	v, err := c.u64()
	return math.Float64frombits(v), err
}

func (c *cursor) cvec() ([]complex128, error) {
	n, err := c.u32()
	if err != nil {
		return nil, err
	}
	if n > maxCIRLen {
		return nil, fmt.Errorf("implausible CIR length %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	if err := c.align8(); err != nil {
		return nil, err
	}
	raw, err := c.take(16 * int(n))
	if err != nil {
		return nil, err
	}
	var out []complex128
	if c.alias {
		out = unsafe.Slice((*complex128)(unsafe.Pointer(&raw[0])), n)
	} else {
		out = make([]complex128, n)
		if nativeLittleEndian {
			copy(c128Bytes(out), raw)
		} else {
			for i := range out {
				re := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
				im := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
				out[i] = complex(re, im)
			}
		}
	}
	// A NaN tap would otherwise surface as NaN losses and metrics far from
	// the persistence layer.
	for _, x := range out {
		if math.IsNaN(real(x)) || math.IsNaN(imag(x)) {
			return nil, fmt.Errorf("NaN in stored CIR")
		}
	}
	return out, nil
}

// others decodes a packet's extra-occupant positions. The bound on
// the count caps the allocation at a few hundred bytes; like every cursor
// read, the coordinate bytes are length-checked before use, so a corrupt
// count cannot over-allocate.
func (c *cursor) others() ([]room.Vec3, error) {
	n, err := c.u32()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > maxOccupants-1 {
		return nil, fmt.Errorf("implausible occupant count %d", n)
	}
	out := make([]room.Vec3, n)
	for i := range out {
		if out[i].X, err = c.f64(); err != nil {
			return nil, err
		}
		if out[i].Y, err = c.f64(); err != nil {
			return nil, err
		}
		if out[i].Z, err = c.f64(); err != nil {
			return nil, err
		}
		if math.IsNaN(out[i].X) || math.IsNaN(out[i].Y) || math.IsNaN(out[i].Z) {
			return nil, fmt.Errorf("NaN in stored occupant position")
		}
	}
	return out, nil
}

func (c *cursor) image() ([]float32, error) {
	n, err := c.u32()
	if err != nil {
		return nil, err
	}
	if n > maxImagePixels {
		return nil, fmt.Errorf("implausible image size %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	if err := c.align8(); err != nil {
		return nil, err
	}
	raw, err := c.take(4 * int(n))
	if err != nil {
		return nil, err
	}
	if c.alias {
		return unsafe.Slice((*float32)(unsafe.Pointer(&raw[0])), n), nil
	}
	out := make([]float32, n)
	if nativeLittleEndian {
		copy(f32Bytes(out), raw)
		return out, nil
	}
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out, nil
}

// decodePacket mirrors appendPacket.
func decodePacket(c *cursor, p *Packet) error {
	idx, err := c.u32()
	if err != nil {
		return err
	}
	p.Index = int(idx)
	seq, err := c.u32()
	if err != nil {
		return err
	}
	p.SeqNum = byte(seq)
	if p.LinkSeed, err = c.u64(); err != nil {
		return err
	}
	flags, err := c.take(1)
	if err != nil {
		return err
	}
	p.PreambleDetected = flags[0]&1 != 0
	var f [5]float64
	for i := range f {
		if f[i], err = c.f64(); err != nil {
			return err
		}
	}
	p.Time, p.Pos.X, p.Pos.Y, p.Pos.Z, p.SyncPeak = f[0], f[1], f[2], f[3], f[4]
	if p.Others, err = c.others(); err != nil {
		return err
	}
	if p.TrueCIR, err = c.cvec(); err != nil {
		return err
	}
	if p.Perfect, err = c.cvec(); err != nil {
		return err
	}
	if p.PerfectAligned, err = c.cvec(); err != nil {
		return err
	}
	if p.PreambleEst, err = c.cvec(); err != nil {
		return err
	}
	for lag := ImageLag(0); lag < numLags; lag++ {
		if p.Images[lag], err = c.image(); err != nil {
			return err
		}
	}
	return nil
}
