package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// Decoder sanity limits: a corrupt or hostile length field is rejected
// before any allocation larger than these bounds, and every slice count
// is checked against the bytes actually present in the frame.
const (
	DefaultMaxFrame = 16 << 20 // bytes in one message frame
	maxLinkID       = 1024     // bytes in a link id
	maxCIRTaps      = 4096     // complex taps per estimate (matches the store)
	maxImagePixels  = 1 << 22  // float32 pixels per frame image
	maxStatsEntries = 1 << 20  // sessions in one stats reply
)

const (
	frameHeaderLen = 12                 // type + status + reserved + request id
	frameMinLen    = frameHeaderLen + 4 // header + trailing CRC
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeader is the fixed part of every decoded message.
type frameHeader struct {
	Type   byte
	Status Status
	ReqID  uint64
}

// nativeLittleEndian gates the memcpy fast path for bulk float payloads
// (same idiom as the campaign store codec). The unsafe byte views are
// always taken of the *typed* slice's backing array, so alignment is
// preserved and the conversion is checkptr-clean; big-endian hosts fall
// back to the portable per-value loop.
var nativeLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func f32Bytes(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

func c64Bytes(v []complex64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}

// ---- encode primitives ----

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// appendString appends a u16 length prefix plus the bytes. Callers
// validate length (link ids ≤ maxLinkID); longer strings are truncated
// defensively rather than corrupting the frame.
func appendString(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

// appendF32s appends a u32 count plus the raw little-endian payload —
// one memcpy on little-endian hosts.
func appendF32s(b []byte, v []float32) []byte {
	b = appendU32(b, uint32(len(v)))
	if len(v) == 0 {
		return b
	}
	if nativeLittleEndian {
		return append(b, f32Bytes(v)...)
	}
	for _, f := range v {
		b = appendU32(b, math.Float32bits(f))
	}
	return b
}

// appendC64s appends a u32 tap count plus interleaved re,im float32
// pairs — one memcpy on little-endian hosts.
func appendC64s(b []byte, v []complex64) []byte {
	b = appendU32(b, uint32(len(v)))
	if len(v) == 0 {
		return b
	}
	if nativeLittleEndian {
		return append(b, c64Bytes(v)...)
	}
	for _, c := range v {
		b = appendU32(b, math.Float32bits(real(c)))
		b = appendU32(b, math.Float32bits(imag(c)))
	}
	return b
}

// beginFrame starts a message frame in b (reusing its capacity): length
// placeholder, header, ready for payload appends.
func beginFrame(b []byte, typ byte, status Status, reqID uint64) []byte {
	b = append(b[:0], 0, 0, 0, 0) // length, patched by finishFrame
	b = append(b, typ, byte(status), 0, 0)
	return appendU64(b, reqID)
}

// finishFrame patches the length field and appends the CRC-32C. The
// returned slice is the complete frame, ready for one Write.
func finishFrame(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[:4], uint32(len(b))) // L = header+payload+crc = len-4+4
	crc := crc32.Checksum(b[4:], castagnoli)
	return appendU32(b, crc)
}

// readFrame reads one message frame: length, bounded read into buf
// (grown as needed and returned for reuse), CRC verification, header
// parse. The returned payload aliases buf — callers must fully consume
// (or copy from) it before the next readFrame on the same buffer.
func readFrame(r io.Reader, buf []byte, maxFrame int) (frameHeader, []byte, []byte, error) {
	var hdr frameHeader
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return hdr, nil, buf, err // io.EOF here = clean close between frames
	}
	frameLen := int(binary.LittleEndian.Uint32(lenb[:]))
	if frameLen < frameMinLen {
		return hdr, nil, buf, fmt.Errorf("wire: frame length %d below minimum %d", frameLen, frameMinLen)
	}
	if frameLen > maxFrame {
		return hdr, nil, buf, fmt.Errorf("wire: frame length %d exceeds limit %d", frameLen, maxFrame)
	}
	if cap(buf) < frameLen {
		buf = make([]byte, frameLen)
	}
	buf = buf[:frameLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return hdr, nil, buf, fmt.Errorf("wire: truncated frame: %w", err)
	}
	body, crcb := buf[:frameLen-4], buf[frameLen-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(crcb); got != want {
		return hdr, nil, buf, fmt.Errorf("wire: frame CRC mismatch: computed %08x, stored %08x", got, want)
	}
	hdr.Type = body[0]
	hdr.Status = Status(body[1])
	if body[2] != 0 || body[3] != 0 {
		return hdr, nil, buf, fmt.Errorf("wire: nonzero reserved header bytes")
	}
	hdr.ReqID = binary.LittleEndian.Uint64(body[4:12])
	return hdr, body[frameHeaderLen:], buf, nil
}

// writePreface / readPreface exchange the magic+version handshake.
func writePreface(w io.Writer) error {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], Magic)
	binary.LittleEndian.PutUint32(b[4:], Version)
	_, err := w.Write(b[:])
	return err
}

func readPreface(r io.Reader) error {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("wire: reading preface: %w", err)
	}
	if got := binary.LittleEndian.Uint32(b[:4]); got != Magic {
		return fmt.Errorf("wire: bad preface magic %08x (not a vvd wire peer?)", got)
	}
	if got := binary.LittleEndian.Uint32(b[4:]); got != Version {
		return fmt.Errorf("wire: protocol version %d, this build speaks %d", got, Version)
	}
	return nil
}

// ---- decode cursor ----

// cursor walks a frame payload with sticky error handling: after the
// first failure every getter returns zero values and the error is
// collected once by done(). Slice getters validate the count against
// the bytes remaining before allocating — a hostile count cannot make
// the decoder allocate more than the frame actually carries.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (c *cursor) need(n int) bool {
	if c.err != nil {
		return false
	}
	if len(c.b)-c.off < n {
		c.fail("payload truncated: need %d bytes at offset %d, have %d", n, c.off, len(c.b)-c.off)
		return false
	}
	return true
}

func (c *cursor) u8() byte {
	if !c.need(1) {
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) u16() uint16 {
	if !c.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v
}

func (c *cursor) u32() uint32 {
	if !c.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if !c.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cursor) str(max int) string {
	n := int(c.u16())
	if c.err != nil {
		return ""
	}
	if n > max {
		c.fail("string length %d exceeds limit %d", n, max)
		return ""
	}
	if !c.need(n) {
		return ""
	}
	s := string(c.b[c.off : c.off+n])
	c.off += n
	return s
}

// f32s decodes a float32 slice into dst's capacity (allocating only on
// growth). The count is bounds-checked against both the explicit limit
// and the remaining payload before any allocation.
func (c *cursor) f32s(max int, dst []float32) []float32 {
	n := int(c.u32())
	if c.err != nil {
		return dst[:0]
	}
	if n > max {
		c.fail("float32 count %d exceeds limit %d", n, max)
		return dst[:0]
	}
	if !c.need(4 * n) {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]float32, n)
	}
	dst = dst[:n]
	raw := c.b[c.off : c.off+4*n]
	c.off += 4 * n
	if n == 0 {
		return dst
	}
	if nativeLittleEndian {
		copy(f32Bytes(dst), raw)
	} else {
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	}
	return dst
}

// c64s decodes a complex64 slice into dst's capacity; same bounds
// discipline as f32s.
func (c *cursor) c64s(max int, dst []complex64) []complex64 {
	n := int(c.u32())
	if c.err != nil {
		return dst[:0]
	}
	if n > max {
		c.fail("CIR tap count %d exceeds limit %d", n, max)
		return dst[:0]
	}
	if !c.need(8 * n) {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]complex64, n)
	}
	dst = dst[:n]
	raw := c.b[c.off : c.off+8*n]
	c.off += 8 * n
	if n == 0 {
		return dst
	}
	if nativeLittleEndian {
		copy(c64Bytes(dst), raw)
	} else {
		for i := range dst {
			re := math.Float32frombits(binary.LittleEndian.Uint32(raw[8*i:]))
			im := math.Float32frombits(binary.LittleEndian.Uint32(raw[8*i+4:]))
			dst[i] = complex(re, im)
		}
	}
	return dst
}

// done returns the collected error, or an error if payload bytes
// remain unconsumed (a well-formed peer never pads).
func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("wire: %d trailing bytes after payload", len(c.b)-c.off)
	}
	return nil
}
