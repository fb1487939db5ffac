package rlp

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// Canonical vectors from the Ethereum RLP specification.
func TestSpecVectors(t *testing.T) {
	cases := []struct {
		name string
		item Item
		want string
	}{
		{"dog", String([]byte("dog")), "83646f67"},
		{"cat-dog list", List(String([]byte("cat")), String([]byte("dog"))), "c88363617483646f67"},
		{"empty string", String(nil), "80"},
		{"empty list", List(), "c0"},
		{"zero", Uint(0), "80"},
		{"fifteen", Uint(15), "0f"},
		{"1024", Uint(1024), "820400"},
		{"set of three", List(List(), List(List()), List(List(), List(List()))),
			"c7c0c1c0c3c0c1c0"},
		{"lorem", String([]byte("Lorem ipsum dolor sit amet, consectetur adipisicing elit")),
			"b8384c6f72656d20697073756d20646f6c6f722073697420616d65742c20636f6e7365637465747572206164697069736963696e6720656c6974"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Encode(tc.item)
			if hex.EncodeToString(got) != tc.want {
				t.Errorf("Encode = %x, want %s", got, tc.want)
			}
			back, err := Decode(got)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !itemEqual(back, tc.item) {
				t.Errorf("round trip mismatch: %+v != %+v", back, tc.item)
			}
		})
	}
}

func itemEqual(a, b Item) bool {
	if a.IsList != b.IsList {
		return false
	}
	if !a.IsList {
		return bytes.Equal(a.Str, b.Str)
	}
	if len(a.List) != len(b.List) {
		return false
	}
	for i := range a.List {
		if !itemEqual(a.List[i], b.List[i]) {
			return false
		}
	}
	return true
}

// randomItem builds a random item tree of bounded depth.
func randomItem(r *rand.Rand, depth int) Item {
	if depth == 0 || r.Intn(3) > 0 {
		n := r.Intn(70)
		b := make([]byte, n)
		r.Read(b)
		return String(b)
	}
	n := r.Intn(5)
	children := make([]Item, n)
	for i := range children {
		children[i] = randomItem(r, depth-1)
	}
	return List(children...)
}

func TestRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		it := randomItem(r, 4)
		enc := Encode(it)
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(x)): %v", err)
		}
		if !itemEqual(back, it) {
			t.Fatalf("round trip mismatch at iteration %d", i)
		}
	}
}

func TestUintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		enc := Encode(Uint(v))
		it, err := Decode(enc)
		if err != nil {
			return false
		}
		got, err := it.AsUint()
		return err == nil && got == v
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want error
	}{
		{"empty input", "", ErrTruncated},
		{"truncated string", "83646f", ErrTruncated},
		{"truncated list", "c8836361", ErrTruncated},
		{"trailing bytes", "83646f6700", ErrTrailing},
		{"non-canonical single byte", "8105", ErrNonCanon},
		{"long form short payload", "b801ff", ErrNonCanon},
		{"leading zero length", "b90001ff", ErrNonCanon},
		{"truncated long length", "b8", ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, err := hex.DecodeString(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Decode(in)
			if !errors.Is(err, tc.want) {
				t.Errorf("Decode(%s) err = %v, want %v", tc.in, err, tc.want)
			}
		})
	}
}

func TestDepthLimit(t *testing.T) {
	// 100 nested single-element lists exceeds maxDepth.
	item := List()
	for i := 0; i < 99; i++ {
		item = List(item)
	}
	in := Encode(item)
	if _, err := Decode(in); !errors.Is(err, ErrNestedDepth) {
		t.Errorf("deep nesting err = %v, want ErrNestedDepth", err)
	}
}

func TestAsUintErrors(t *testing.T) {
	list := List()
	if _, err := list.AsUint(); err == nil {
		t.Error("AsUint on list: expected error")
	}
	big := String(bytes.Repeat([]byte{0xff}, 9))
	if _, err := big.AsUint(); err == nil {
		t.Error("AsUint on 9-byte string: expected error")
	}
	zeroLead := String([]byte{0x00, 0x01})
	if _, err := zeroLead.AsUint(); err == nil {
		t.Error("AsUint with leading zero: expected error")
	}
}

func TestLongList(t *testing.T) {
	items := make([]Item, 30)
	for i := range items {
		items[i] = String([]byte("abcdef"))
	}
	enc := EncodeList(items...)
	if enc[0] < 0xf8 {
		t.Fatalf("expected long-list prefix, got %#x", enc[0])
	}
	back, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.List) != 30 {
		t.Errorf("decoded %d children, want 30", len(back.List))
	}
}

func BenchmarkEncodeTxLike(b *testing.B) {
	item := List(Uint(42), Uint(20_000_000_000), Uint(21000),
		String(bytes.Repeat([]byte{0xaa}, 20)), Uint(1_000_000),
		String(bytes.Repeat([]byte{0xbb}, 68)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(item)
	}
}

func BenchmarkDecodeTxLike(b *testing.B) {
	enc := Encode(List(Uint(42), Uint(20_000_000_000), Uint(21000),
		String(bytes.Repeat([]byte{0xaa}, 20)), Uint(1_000_000),
		String(bytes.Repeat([]byte{0xbb}, 68))))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStreamingHelpersMatchEncode checks the size and append helpers the
// trie encoder builds nodes with against Encode, across the short/long
// header boundaries.
func TestStreamingHelpersMatchEncode(t *testing.T) {
	for _, n := range []int{0, 1, 2, 31, 32, 55, 56, 255, 256, 1024, 65535, 65536} {
		s := bytes.Repeat([]byte{0x81}, n)
		want := Encode(String(s))
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%d bytes) = %x, want %x", n, got, want)
		}
		if got := StringSize(s); got != len(want) {
			t.Fatalf("StringSize(%d bytes) = %d, want %d", n, got, len(want))
		}
		list := Encode(List(String(s)))
		hdr := AppendListHeader(nil, len(want))
		if got := append(hdr, want...); !bytes.Equal(got, list) {
			t.Fatalf("AppendListHeader(%d) + child = %x, want %x", len(want), got, list)
		}
		if got := ListSize(len(want)); got != len(list) {
			t.Fatalf("ListSize(%d) = %d, want %d", len(want), got, len(list))
		}
	}
	for _, b := range []byte{0x00, 0x7f, 0x80, 0xff} {
		if got, want := StringSize([]byte{b}), len(Encode(String([]byte{b}))); got != want {
			t.Fatalf("StringSize([%#x]) = %d, want %d", b, got, want)
		}
	}
}
