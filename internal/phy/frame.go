package phy

import (
	"errors"
	"fmt"
)

// Frame-format constants (IEEE 802.15.4 PPDU).
const (
	PreambleBytes = 4    // SHR preamble: four zero octets (8 zero symbols)
	SFDByte       = 0xA7 // start-of-frame delimiter
	MaxPSDU       = 127  // aMaxPHYPacketSize
	// SyncSymbols is the number of symbols in the SHR (preamble + SFD).
	SyncSymbols = PreambleBytes*2 + 2
	// DefaultPSDULen mirrors the paper's 127-byte PSDU.
	DefaultPSDULen = 127
)

// ErrFrameTooLong is returned when a PSDU would exceed MaxPSDU bytes.
var ErrFrameTooLong = errors.New("phy: PSDU exceeds 127 bytes")

// ErrFrameTooShort is returned when a PSDU cannot hold header + FCS.
var ErrFrameTooShort = errors.New("phy: PSDU too short")

// Frame is the MAC-level content carried in the PSDU. As in the paper's
// measurements, every frame shares the same payload and differs only in the
// sequence number (and hence FCS).
type Frame struct {
	SeqNum  byte
	Payload []byte
}

// psduOverhead is seq(1) + FCS(2).
const psduOverhead = 3

// BuildPSDU serializes the frame into a PSDU: [seq | payload | FCS].
func (f *Frame) BuildPSDU() ([]byte, error) {
	n := 1 + len(f.Payload) + 2
	if n > MaxPSDU {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLong, n)
	}
	body := make([]byte, 0, n)
	body = append(body, f.SeqNum)
	body = append(body, f.Payload...)
	return AppendFCS(body), nil
}

// ParsePSDU validates the FCS and decodes the frame. A CRC failure returns
// an error with the partially-decoded frame left nil.
func ParsePSDU(psdu []byte) (*Frame, error) {
	if len(psdu) < psduOverhead {
		return nil, ErrFrameTooShort
	}
	if !CheckFCS(psdu) {
		return nil, errors.New("phy: FCS check failed")
	}
	payload := make([]byte, len(psdu)-psduOverhead)
	copy(payload, psdu[1:len(psdu)-2])
	return &Frame{SeqNum: psdu[0], Payload: payload}, nil
}

// ValidPSDU reports whether ParsePSDU would accept psdu — long enough for
// the header and FCS, with a valid FCS — without decoding the frame.
func ValidPSDU(psdu []byte) bool {
	return len(psdu) >= psduOverhead && CheckFCS(psdu)
}

// DefaultPayload returns the constant measurement payload of the requested
// PSDU length (so that PSDU = 1 + len(payload) + 2 bytes), a repeating
// pattern as used by the paper's fixed-payload packets.
func DefaultPayload(psduLen int) []byte {
	if psduLen < psduOverhead {
		psduLen = psduOverhead
	}
	if psduLen > MaxPSDU {
		psduLen = MaxPSDU
	}
	p := make([]byte, psduLen-psduOverhead)
	for i := range p {
		p[i] = byte(0xA0 | i&0x0F)
	}
	return p
}

// PPDU is a fully-assembled PHY protocol data unit in bit form along with
// the metadata needed by the receiver.
type PPDU struct {
	Bits     []byte // SHR + PHR + PSDU bits, LSB-first per octet
	PSDUBits int    // number of trailing bits belonging to the PSDU
	PSDULen  int    // PSDU length in bytes
}

// BuildPPDU assembles preamble + SFD + PHR(length) + PSDU into bits.
func BuildPPDU(psdu []byte) (*PPDU, error) {
	if len(psdu) > MaxPSDU {
		return nil, ErrFrameTooLong
	}
	if len(psdu) < psduOverhead {
		return nil, ErrFrameTooShort
	}
	raw := make([]byte, 0, PreambleBytes+2+len(psdu))
	for i := 0; i < PreambleBytes; i++ {
		raw = append(raw, 0x00)
	}
	raw = append(raw, SFDByte)
	raw = append(raw, byte(len(psdu))) // PHR: 7-bit frame length
	raw = append(raw, psdu...)
	return &PPDU{
		Bits:     BytesToBits(raw),
		PSDUBits: len(psdu) * 8,
		PSDULen:  len(psdu),
	}, nil
}

// SHRChips returns the chip sequence of the synchronization header
// (preamble + SFD), used as the receiver's sync reference.
func SHRChips() []byte {
	raw := make([]byte, PreambleBytes, PreambleBytes+1)
	raw = append(raw, SFDByte)
	return SpreadBits(BytesToBits(raw))
}
