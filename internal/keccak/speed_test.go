//go:build go1.24 && !race

package keccak

import (
	"crypto/sha3"
	"testing"
)

// maxSlowdownVsStdlib bounds Sum256 against crypto/sha3.Sum256 (assembly on
// amd64 and arm64) on a 32-byte input, measured in the same process so the
// machine's speed cancels out. The unrolled permutation runs at about 1.3x;
// the [5][5]-indexed spec form (refKeccakF1600) runs at about 8-10x.
const maxSlowdownVsStdlib = 3.0

func TestSum256SpeedVsStdlib(t *testing.T) {
	data := make([]byte, 32)
	ours := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = Sum256(data)
		}
	})
	std := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = sha3.Sum256(data)
		}
	})
	ratio := float64(ours.NsPerOp()) / float64(std.NsPerOp())
	t.Logf("Sum256 %d ns/op, crypto/sha3.Sum256 %d ns/op, ratio %.2f", ours.NsPerOp(), std.NsPerOp(), ratio)
	if ratio > maxSlowdownVsStdlib {
		t.Errorf("Sum256 is %.2fx crypto/sha3.Sum256 on 32 bytes, want at most %.1fx", ratio, maxSlowdownVsStdlib)
	}
}
