// Package phy implements the IEEE 802.15.4 2.45 GHz O-QPSK DSSS physical
// layer used by the paper's testbed: 4-bit symbols spread to 32-chip PN
// sequences, half-sine O-QPSK modulation at 2 Mchip/s, frame construction
// (preamble, SFD, PHR, PSDU, FCS), and a receiver with frame
// synchronization, frequency/phase offset correction, chip-level hard
// decisions and PN-sequence despreading.
//
// The sample rate is 8 MHz (4 samples per chip), matching the paper's
// downsampled USRP capture rate, which over-resolves the 2 MHz channel to
// increase multipath temporal resolution.
package phy

import (
	"math"
	"math/bits"
	"slices"
)

// PHY-rate constants for the 2.45 GHz O-QPSK PHY.
const (
	ChipRate         = 2e6      // chips per second
	SampleRate       = 8e6      // receiver samples per second (paper: USRP downsampled to 8 MHz)
	SamplesPerChip   = 4        // SampleRate / ChipRate
	ChipsPerSymbol   = 32       // DSSS spreading factor
	BitsPerSymbol    = 4        // each symbol carries one nibble
	CarrierFrequency = 2.4800e9 // channel 26 centre frequency in Hz
	Wavelength       = 2.99792458e8 / CarrierFrequency
)

// pnBase is the chip sequence for data symbol 0 (IEEE 802.15.4-2003 Table
// 24), c0 first.
var pnBase = [ChipsPerSymbol]byte{
	1, 1, 0, 1, 1, 0, 0, 1,
	1, 1, 0, 0, 0, 0, 1, 1,
	0, 1, 0, 1, 0, 0, 1, 0,
	0, 0, 1, 0, 1, 1, 1, 0,
}

// pnTable holds the 16 nearly-orthogonal 32-chip sequences. Symbols 1–7 are
// right-cyclic shifts of symbol 0 by 4·k chips; symbols 8–15 repeat 0–7 with
// every odd-indexed chip inverted (quadrature conjugation), per the standard.
var pnTable = buildPNTable()

func buildPNTable() [16][ChipsPerSymbol]byte {
	var t [16][ChipsPerSymbol]byte
	for sym := 0; sym < 8; sym++ {
		shift := 4 * sym
		for i := 0; i < ChipsPerSymbol; i++ {
			t[sym][(i+shift)%ChipsPerSymbol] = pnBase[i]
		}
	}
	for sym := 8; sym < 16; sym++ {
		t[sym] = t[sym-8]
		for i := 1; i < ChipsPerSymbol; i += 2 {
			t[sym][i] ^= 1
		}
	}
	return t
}

// ChipsForSymbol returns the 32-chip PN sequence for a 4-bit symbol value.
// It panics for values outside 0..15.
func ChipsForSymbol(sym int) [ChipsPerSymbol]byte {
	if sym < 0 || sym > 15 {
		panic("phy: symbol out of range")
	}
	return pnTable[sym]
}

// SpreadBits maps a bit slice (len divisible by 4, LSB-first within each
// nibble per the standard's b0-first ordering) to its chip sequence.
func SpreadBits(bits []byte) []byte {
	if len(bits)%BitsPerSymbol != 0 {
		panic("phy: SpreadBits needs a multiple of 4 bits")
	}
	chips := make([]byte, 0, len(bits)/BitsPerSymbol*ChipsPerSymbol)
	for i := 0; i < len(bits); i += BitsPerSymbol {
		sym := int(bits[i]) | int(bits[i+1])<<1 | int(bits[i+2])<<2 | int(bits[i+3])<<3
		pn := pnTable[sym]
		chips = append(chips, pn[:]...)
	}
	return chips
}

// pnPacked holds each PN sequence as a 32-bit word (chip i in bit i) so
// despreading reduces to XOR + popcount.
var pnPacked = buildPNPacked()

func buildPNPacked() [16]uint32 {
	var p [16]uint32
	for sym := range pnTable {
		p[sym] = packChips(pnTable[sym][:])
	}
	return p
}

func packChips(chips []byte) uint32 {
	var w uint32
	for i, c := range chips {
		if c != 0 {
			w |= 1 << i
		}
	}
	return w
}

// DespreadChips maps hard chip decisions back to bits by choosing, for every
// 32-chip block, the PN sequence with the highest agreement count (minimum
// Hamming distance, computed with XOR + popcount). Trailing partial blocks
// are ignored. The returned bits use the same LSB-first nibble ordering as
// SpreadBits.
func DespreadChips(chips []byte) []byte {
	return DespreadChipsInto(nil, chips)
}

// DespreadChipsInto is DespreadChips writing into dst, which is reused
// when its capacity covers the bits and reallocated otherwise. It returns
// the bits.
func DespreadChipsInto(dst, chips []byte) []byte {
	nsym := len(chips) / ChipsPerSymbol
	out := slices.Grow(dst[:0], nsym*BitsPerSymbol)
	for s := 0; s < nsym; s++ {
		block := packChips(chips[s*ChipsPerSymbol : (s+1)*ChipsPerSymbol])
		best, bestSym := ChipsPerSymbol+1, 0
		for sym, pn := range pnPacked {
			if d := bits.OnesCount32(block ^ pn); d < best {
				best, bestSym = d, sym
			}
		}
		out = append(out,
			byte(bestSym&1), byte(bestSym>>1&1), byte(bestSym>>2&1), byte(bestSym>>3&1))
	}
	return out
}

// DespreadSoft maps *soft* chip values (matched-rail samples before the
// sign decision) to bits by correlating each 32-chip block against the
// ±1-mapped PN sequences and picking the largest correlation. Soft
// despreading weights reliable chips more than borderline ones, buying
// roughly 1–2 dB over hard-decision despreading near the decoding
// threshold. Trailing partial blocks are ignored.
func DespreadSoft(soft []float64) []byte {
	return DespreadSoftInto(nil, soft)
}

// DespreadSoftInto is DespreadSoft writing into dst, which is reused when
// its capacity covers the bits and reallocated otherwise. It returns the
// bits.
func DespreadSoftInto(dst []byte, soft []float64) []byte {
	nsym := len(soft) / ChipsPerSymbol
	out := slices.Grow(dst[:0], nsym*BitsPerSymbol)
	for s := 0; s < nsym; s++ {
		block := soft[s*ChipsPerSymbol : (s+1)*ChipsPerSymbol]
		best, bestSym := math.Inf(-1), 0
		for sym := 0; sym < 16; sym++ {
			var corr float64
			pn := &pnTable[sym]
			for i, v := range block {
				if pn[i] != 0 {
					corr += v
				} else {
					corr -= v
				}
			}
			if corr > best {
				best, bestSym = corr, sym
			}
		}
		out = append(out,
			byte(bestSym&1), byte(bestSym>>1&1), byte(bestSym>>2&1), byte(bestSym>>3&1))
	}
	return out
}

// BytesToBits expands bytes into bits, LSB first (b0 of each octet first,
// matching the standard's transmission order).
func BytesToBits(data []byte) []byte {
	bits := make([]byte, 0, len(data)*8)
	for _, b := range data {
		for i := 0; i < 8; i++ {
			bits = append(bits, b>>i&1)
		}
	}
	return bits
}

// BitsToBytes packs LSB-first bits into bytes. len(bits) must be a multiple
// of 8.
func BitsToBytes(bits []byte) []byte {
	return BitsToBytesInto(nil, bits)
}

// BitsToBytesInto is BitsToBytes writing into dst, which is reused when its
// capacity covers the bytes and reallocated otherwise. It returns the
// bytes.
func BitsToBytesInto(dst, bits []byte) []byte {
	if len(bits)%8 != 0 {
		panic("phy: BitsToBytes needs a multiple of 8 bits")
	}
	out := slices.Grow(dst[:0], len(bits)/8)[:len(bits)/8]
	clear(out)
	for i, b := range bits {
		if b != 0 {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}
