// Package keccak implements the legacy Keccak-256 hash (pre-NIST padding,
// domain byte 0x01) used throughout Ethereum for storage-slot derivation,
// trie node hashing, and transaction/block identifiers.
package keccak

import (
	"encoding/binary"
	"math/bits"
)

const (
	rate       = 136 // bytes absorbed per permutation for a 256-bit digest
	digestSize = 32

	// legacyDomain is the first padding byte of original Keccak, which
	// Ethereum uses; FIPS 202 SHA3-256 uses 0x06 with the same rate.
	legacyDomain = 0x01
)

var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808a, 0x8000000080008000,
	0x000000000000808b, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008a, 0x0000000000000088, 0x0000000080008009, 0x000000008000000a,
	0x000000008000808b, 0x800000000000008b, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800a, 0x800000008000000a,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// keccakF1600 applies the 24-round Keccak-f[1600] permutation to a state
// whose lane (x, y) sits at index x+5*y. The round body is unrolled: theta,
// then rho and pi fused (each output lane b(X, Y) = rot(a(x, X), r[x][X])
// with x = (X+3Y) mod 5, rotation offsets written inline), then chi row by
// row; iota closes each round.
func keccakF1600(s *[25]uint64) {
	a0, a1, a2, a3, a4 := s[0], s[1], s[2], s[3], s[4]
	a5, a6, a7, a8, a9 := s[5], s[6], s[7], s[8], s[9]
	a10, a11, a12, a13, a14 := s[10], s[11], s[12], s[13], s[14]
	a15, a16, a17, a18, a19 := s[15], s[16], s[17], s[18], s[19]
	a20, a21, a22, a23, a24 := s[20], s[21], s[22], s[23], s[24]

	for _, rc := range roundConstants {
		// theta
		c0 := a0 ^ a5 ^ a10 ^ a15 ^ a20
		c1 := a1 ^ a6 ^ a11 ^ a16 ^ a21
		c2 := a2 ^ a7 ^ a12 ^ a17 ^ a22
		c3 := a3 ^ a8 ^ a13 ^ a18 ^ a23
		c4 := a4 ^ a9 ^ a14 ^ a19 ^ a24
		d0 := c4 ^ bits.RotateLeft64(c1, 1)
		d1 := c0 ^ bits.RotateLeft64(c2, 1)
		d2 := c1 ^ bits.RotateLeft64(c3, 1)
		d3 := c2 ^ bits.RotateLeft64(c4, 1)
		d4 := c3 ^ bits.RotateLeft64(c0, 1)

		// rho and pi, one output row at a time, then chi on that row.
		b0 := a0 ^ d0
		b1 := bits.RotateLeft64(a6^d1, 44)
		b2 := bits.RotateLeft64(a12^d2, 43)
		b3 := bits.RotateLeft64(a18^d3, 21)
		b4 := bits.RotateLeft64(a24^d4, 14)
		e0 := b0 ^ (^b1 & b2) ^ rc
		e1 := b1 ^ (^b2 & b3)
		e2 := b2 ^ (^b3 & b4)
		e3 := b3 ^ (^b4 & b0)
		e4 := b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(a3^d3, 28)
		b1 = bits.RotateLeft64(a9^d4, 20)
		b2 = bits.RotateLeft64(a10^d0, 3)
		b3 = bits.RotateLeft64(a16^d1, 45)
		b4 = bits.RotateLeft64(a22^d2, 61)
		e5 := b0 ^ (^b1 & b2)
		e6 := b1 ^ (^b2 & b3)
		e7 := b2 ^ (^b3 & b4)
		e8 := b3 ^ (^b4 & b0)
		e9 := b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(a1^d1, 1)
		b1 = bits.RotateLeft64(a7^d2, 6)
		b2 = bits.RotateLeft64(a13^d3, 25)
		b3 = bits.RotateLeft64(a19^d4, 8)
		b4 = bits.RotateLeft64(a20^d0, 18)
		e10 := b0 ^ (^b1 & b2)
		e11 := b1 ^ (^b2 & b3)
		e12 := b2 ^ (^b3 & b4)
		e13 := b3 ^ (^b4 & b0)
		e14 := b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(a4^d4, 27)
		b1 = bits.RotateLeft64(a5^d0, 36)
		b2 = bits.RotateLeft64(a11^d1, 10)
		b3 = bits.RotateLeft64(a17^d2, 15)
		b4 = bits.RotateLeft64(a23^d3, 56)
		e15 := b0 ^ (^b1 & b2)
		e16 := b1 ^ (^b2 & b3)
		e17 := b2 ^ (^b3 & b4)
		e18 := b3 ^ (^b4 & b0)
		e19 := b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(a2^d2, 62)
		b1 = bits.RotateLeft64(a8^d3, 55)
		b2 = bits.RotateLeft64(a14^d4, 39)
		b3 = bits.RotateLeft64(a15^d0, 41)
		b4 = bits.RotateLeft64(a21^d1, 2)
		a20 = b0 ^ (^b1 & b2)
		a21 = b1 ^ (^b2 & b3)
		a22 = b2 ^ (^b3 & b4)
		a23 = b3 ^ (^b4 & b0)
		a24 = b4 ^ (^b0 & b1)

		a0, a1, a2, a3, a4 = e0, e1, e2, e3, e4
		a5, a6, a7, a8, a9 = e5, e6, e7, e8, e9
		a10, a11, a12, a13, a14 = e10, e11, e12, e13, e14
		a15, a16, a17, a18, a19 = e15, e16, e17, e18, e19
	}

	s[0], s[1], s[2], s[3], s[4] = a0, a1, a2, a3, a4
	s[5], s[6], s[7], s[8], s[9] = a5, a6, a7, a8, a9
	s[10], s[11], s[12], s[13], s[14] = a10, a11, a12, a13, a14
	s[15], s[16], s[17], s[18], s[19] = a15, a16, a17, a18, a19
	s[20], s[21], s[22], s[23], s[24] = a20, a21, a22, a23, a24
}

// absorb XORs one rate-sized block into the state lane by lane and permutes.
func absorb(s *[25]uint64, block []byte) {
	_ = block[rate-1]
	for i := 0; i < rate/8; i++ {
		s[i] ^= binary.LittleEndian.Uint64(block[8*i:])
	}
	keccakF1600(s)
}

// finish pads the final partial block tail (len(tail) < rate) with domain
// ... 0x80, absorbs it into s, and squeezes the 32-byte digest.
func finish(s *[25]uint64, tail []byte, domain byte) [32]byte {
	var last [rate]byte
	copy(last[:], tail)
	last[len(tail)] = domain
	last[rate-1] |= 0x80
	absorb(s, last[:])

	var out [digestSize]byte
	for i := 0; i < digestSize/8; i++ {
		binary.LittleEndian.PutUint64(out[8*i:], s[i])
	}
	return out
}

// sum is the one-shot sponge: full blocks are absorbed straight from data,
// only the final partial block is copied for padding.
func sum(data []byte, domain byte) [32]byte {
	var s [25]uint64
	for len(data) >= rate {
		absorb(&s, data[:rate])
		data = data[rate:]
	}
	return finish(&s, data, domain)
}

// Hasher is an incremental Keccak-256 hasher. The zero value is ready to
// use. It implements the write/sum pattern of hash.Hash without the
// interface plumbing this package does not need.
type Hasher struct {
	state [25]uint64 // lane (x, y) at x+5*y
	buf   [rate]byte
	n     int
}

// Reset returns the hasher to its initial state.
func (h *Hasher) Reset() {
	*h = Hasher{}
}

// Write absorbs more data into the hash state. It never fails.
func (h *Hasher) Write(p []byte) (int, error) {
	total := len(p)
	if h.n > 0 {
		k := copy(h.buf[h.n:], p)
		h.n += k
		p = p[k:]
		if h.n < rate {
			return total, nil
		}
		absorb(&h.state, h.buf[:])
		h.n = 0
	}
	for len(p) >= rate {
		absorb(&h.state, p[:rate])
		p = p[rate:]
	}
	h.n = copy(h.buf[:], p)
	return total, nil
}

// Sum256 finalizes a copy of the state and returns the 32-byte digest; the
// hasher can keep absorbing afterwards.
func (h *Hasher) Sum256() [32]byte {
	s := h.state
	return finish(&s, h.buf[:h.n], legacyDomain)
}

// Sum256 returns the Keccak-256 digest of data.
func Sum256(data []byte) [32]byte {
	return sum(data, legacyDomain)
}

// Sum256Concat hashes the concatenation of the given byte slices without
// materialising the joined buffer.
func Sum256Concat(parts ...[]byte) [32]byte {
	var h Hasher
	for _, p := range parts {
		_, _ = h.Write(p)
	}
	return h.Sum256()
}
