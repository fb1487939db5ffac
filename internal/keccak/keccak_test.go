package keccak

import (
	"bytes"
	"encoding/hex"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// Known-answer vectors for legacy Keccak-256 (Ethereum variant).
var vectors = []struct {
	in   string
	want string
}{
	{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
	{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
	{"The quick brown fox jumps over the lazy dog",
		"4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"},
	{"testing", "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02"},
}

func TestVectors(t *testing.T) {
	for _, v := range vectors {
		got := Sum256([]byte(v.in))
		if hex.EncodeToString(got[:]) != v.want {
			t.Errorf("Sum256(%q) = %x, want %s", v.in, got, v.want)
		}
	}
}

func TestIncrementalMatchesOneShot(t *testing.T) {
	f := func(data []byte, cut uint8) bool {
		want := Sum256(data)
		var h Hasher
		k := 0
		if len(data) > 0 {
			k = int(cut) % (len(data) + 1)
		}
		_, _ = h.Write(data[:k])
		_, _ = h.Write(data[k:])
		got := h.Sum256()
		return got == want
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSumIsNonDestructive(t *testing.T) {
	var h Hasher
	_, _ = h.Write([]byte("hello "))
	first := h.Sum256()
	second := h.Sum256()
	if first != second {
		t.Fatal("Sum256 mutated hasher state")
	}
	_, _ = h.Write([]byte("world"))
	got := h.Sum256()
	want := Sum256([]byte("hello world"))
	if got != want {
		t.Errorf("continued hash = %x, want %x", got, want)
	}
}

func TestSumConcat(t *testing.T) {
	a, b, c := []byte("foo"), []byte("bar"), []byte("baz")
	got := Sum256Concat(a, b, c)
	want := Sum256(bytes.Join([][]byte{a, b, c}, nil))
	if got != want {
		t.Errorf("Sum256Concat = %x, want %x", got, want)
	}
}

func TestRateBoundaries(t *testing.T) {
	// Inputs straddling the 136-byte rate exercise the multi-block path and
	// the pad-only block (n == rate-1 puts both pad bytes in one position).
	for _, n := range []int{rate - 2, rate - 1, rate, rate + 1, 2*rate - 1, 2 * rate, 3*rate + 5} {
		data := bytes.Repeat([]byte{0xaa}, n)
		var h Hasher
		_, _ = h.Write(data)
		if got, want := h.Sum256(), Sum256(data); got != want {
			t.Errorf("n=%d: incremental %x != one-shot %x", n, got, want)
		}
	}
}

func TestReset(t *testing.T) {
	var h Hasher
	_, _ = h.Write([]byte("garbage"))
	h.Reset()
	got := h.Sum256()
	if want := Sum256(nil); got != want {
		t.Errorf("after Reset: %x, want %x", got, want)
	}
}

func TestDistinctInputsDistinctDigests(t *testing.T) {
	seen := make(map[[32]byte]string)
	for i := 0; i < 1000; i++ {
		in := []byte{byte(i), byte(i >> 8), 0x42}
		d := Sum256(in)
		if prev, dup := seen[d]; dup {
			t.Fatalf("collision between %x and %x", prev, in)
		}
		seen[d] = string(in)
	}
}

// refRotc holds the rho rotation offsets, indexed [x][y].
var refRotc = [5][5]uint{
	{0, 36, 3, 41, 18},
	{1, 44, 10, 45, 2},
	{62, 6, 43, 15, 61},
	{28, 55, 25, 21, 56},
	{27, 20, 39, 8, 14},
}

// refKeccakF1600 is Keccak-f[1600] written step for step from the reference
// specification, on a state indexed a[x][y]. It is the oracle for the
// unrolled permutation.
func refKeccakF1600(a *[5][5]uint64) {
	var c, d [5]uint64
	var b [5][5]uint64
	for round := 0; round < 24; round++ {
		// theta
		for x := 0; x < 5; x++ {
			c[x] = a[x][0] ^ a[x][1] ^ a[x][2] ^ a[x][3] ^ a[x][4]
		}
		for x := 0; x < 5; x++ {
			d[x] = c[(x+4)%5] ^ bits.RotateLeft64(c[(x+1)%5], 1)
			for y := 0; y < 5; y++ {
				a[x][y] ^= d[x]
			}
		}
		// rho and pi
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				b[y][(2*x+3*y)%5] = bits.RotateLeft64(a[x][y], int(refRotc[x][y]))
			}
		}
		// chi
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				a[x][y] = b[x][y] ^ (^b[(x+1)%5][y] & b[(x+2)%5][y])
			}
		}
		// iota
		a[0][0] ^= roundConstants[round]
	}
}

func TestPermutationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		var flat [25]uint64
		var ref [5][5]uint64
		for j := range flat {
			flat[j] = rng.Uint64()
			ref[j%5][j/5] = flat[j]
		}
		if i == 0 {
			flat, ref = [25]uint64{}, [5][5]uint64{} // the all-zero state too
		}
		keccakF1600(&flat)
		refKeccakF1600(&ref)
		for j := range flat {
			if flat[j] != ref[j%5][j/5] {
				t.Fatalf("state %d: lane (%d,%d) = %#x, reference %#x", i, j%5, j/5, flat[j], ref[j%5][j/5])
			}
		}
	}
}

func BenchmarkSum256_32(b *testing.B)  { benchSum(b, 32) }
func BenchmarkSum256_256(b *testing.B) { benchSum(b, 256) }
func BenchmarkSum256_4K(b *testing.B)  { benchSum(b, 4096) }

// sink keeps benchmarked digests live so the calls cannot be optimised away.
var sink [32]byte

func benchSum(b *testing.B, n int) {
	data := make([]byte, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = Sum256(data)
	}
}
