//go:build go1.24

package keccak

import (
	"crypto/sha3"
	"math/rand"
	"testing"
)

// SHA3-256 (FIPS 202) is the same sponge as legacy Keccak-256 with domain
// byte 0x06 instead of 0x01, so the standard library is an independent
// implementation to check absorb, padding, permutation and squeeze against.
func TestSHA3Differential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(3*rate+6))
		rng.Read(data)
		want := sha3.Sum256(data)
		if got := sum(data, 0x06); got != want {
			t.Fatalf("len %d: sum = %x, crypto/sha3 = %x", len(data), got, want)
		}

		// The same input written incrementally at random split points.
		var h Hasher
		for rest := data; ; {
			k := rng.Intn(len(rest) + 1)
			_, _ = h.Write(rest[:k])
			rest = rest[k:]
			if len(rest) == 0 {
				break
			}
		}
		s := h.state
		if got := finish(&s, h.buf[:h.n], 0x06); got != want {
			t.Fatalf("len %d incremental: sum = %x, crypto/sha3 = %x", len(data), got, want)
		}
	}
}

func BenchmarkStdlibSHA3_256_32(b *testing.B) {
	data := make([]byte, 32)
	b.SetBytes(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = sha3.Sum256(data)
	}
}
