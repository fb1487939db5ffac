package trie

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"

	"dmvcc/internal/types"
)

func newEmpty(t *testing.T) *Trie {
	t.Helper()
	tr, err := New(EmptyRoot, NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestEmptyRootConstant(t *testing.T) {
	want := "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
	if hex.EncodeToString(EmptyRoot[:]) != want {
		t.Fatalf("EmptyRoot = %x, want %s", EmptyRoot, want)
	}
	tr := newEmpty(t)
	h, err := tr.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != EmptyRoot {
		t.Errorf("empty trie hash = %s, want EmptyRoot", h)
	}
}

// The canonical "dog" trie vector from the Ethereum test suite.
func TestKnownRootVector(t *testing.T) {
	tr := newEmpty(t)
	pairs := [][2]string{
		{"do", "verb"},
		{"dog", "puppy"},
		{"doge", "coin"},
		{"horse", "stallion"},
	}
	for _, p := range pairs {
		if err := tr.Put([]byte(p[0]), []byte(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	h, err := tr.Hash()
	if err != nil {
		t.Fatal(err)
	}
	want := "5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84"
	if hex.EncodeToString(h[:]) != want {
		t.Errorf("root = %x, want %s", h, want)
	}
}

func TestGetPutDelete(t *testing.T) {
	tr := newEmpty(t)
	if _, err := tr.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get missing: %v, want ErrNotFound", err)
	}
	if err := tr.Put([]byte("key"), []byte("value1")); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get([]byte("key"))
	if err != nil || !bytes.Equal(got, []byte("value1")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// Overwrite.
	if err := tr.Put([]byte("key"), []byte("value2")); err != nil {
		t.Fatal(err)
	}
	got, _ = tr.Get([]byte("key"))
	if !bytes.Equal(got, []byte("value2")) {
		t.Fatalf("after overwrite Get = %q", got)
	}
	// Delete restores the empty root.
	if err := tr.Delete([]byte("key")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Get([]byte("key")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get deleted: %v, want ErrNotFound", err)
	}
	h, _ := tr.Hash()
	if h != EmptyRoot {
		t.Errorf("root after delete = %s, want EmptyRoot", h)
	}
}

func TestPutEmptyValueDeletes(t *testing.T) {
	tr := newEmpty(t)
	if err := tr.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("k"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Errorf("empty-value put should delete; got %v", err)
	}
}

func TestDeleteMissingIsNoop(t *testing.T) {
	tr := newEmpty(t)
	if err := tr.Put([]byte("present"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	before, _ := tr.Hash()
	if err := tr.Delete([]byte("absent")); err != nil {
		t.Fatal(err)
	}
	after, _ := tr.Hash()
	if before != after {
		t.Error("deleting a missing key changed the root")
	}
}

// randomOps drives the trie and a map model through the same operations and
// checks observable equivalence plus root determinism.
func TestModelEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	tr := newEmpty(t)
	model := make(map[string][]byte)
	keys := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		k := make([]byte, 1+r.Intn(8))
		r.Read(k)
		keys = append(keys, k)
	}
	for step := 0; step < 5000; step++ {
		k := keys[r.Intn(len(keys))]
		switch r.Intn(3) {
		case 0, 1:
			v := make([]byte, 1+r.Intn(40))
			r.Read(v)
			if err := tr.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = v
		case 2:
			if err := tr.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(model, string(k))
		}
	}
	for ks, want := range model {
		got, err := tr.Get([]byte(ks))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("model mismatch for %x: got %x err %v want %x", ks, got, err, want)
		}
	}
	for _, k := range keys {
		if _, inModel := model[string(k)]; !inModel {
			if _, err := tr.Get(k); !errors.Is(err, ErrNotFound) {
				t.Fatalf("key %x should be absent, err=%v", k, err)
			}
		}
	}
}

// TestRootOrderIndependence checks the defining MPT property: the root
// depends only on the final key-value mapping, not the operation order.
func TestRootOrderIndependence(t *testing.T) {
	const n = 200
	kv := make(map[string][]byte, n)
	r := rand.New(rand.NewSource(55))
	for i := 0; i < n; i++ {
		var k [8]byte
		binary.BigEndian.PutUint64(k[:], r.Uint64())
		v := make([]byte, 1+r.Intn(60))
		r.Read(v)
		kv[string(k[:])] = v
	}
	buildRoot := func(seed int64) types.Hash {
		order := make([]string, 0, len(kv))
		for k := range kv {
			order = append(order, k)
		}
		rr := rand.New(rand.NewSource(seed))
		rr.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		tr, err := New(EmptyRoot, NewMemStore())
		if err != nil {
			t.Fatal(err)
		}
		// Insert some garbage first and delete it, to exercise deletion paths.
		for i := 0; i < 50; i++ {
			junk := []byte{0xff, byte(i), 0xee}
			if err := tr.Put(junk, []byte("junk")); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range order {
			if err := tr.Put([]byte(k), kv[k]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			junk := []byte{0xff, byte(i), 0xee}
			if err := tr.Delete(junk); err != nil {
				t.Fatal(err)
			}
		}
		h, err := tr.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	first := buildRoot(1)
	for seed := int64(2); seed <= 5; seed++ {
		if got := buildRoot(seed); got != first {
			t.Fatalf("root differs across insertion orders: %s != %s", got, first)
		}
	}
}

func TestCommitAndReopen(t *testing.T) {
	store := NewMemStore()
	tr, err := New(EmptyRoot, store)
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[string]string{
		"alpha": "1", "beta": "2", "gamma": "3", "delta": "4",
		"alphabet": "5", "alpine": "6",
	}
	for k, v := range pairs {
		if err := tr.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	root, err := tr.Commit()
	if err != nil {
		t.Fatal(err)
	}
	// Reopen from the store by root and verify all pairs are readable.
	tr2, err := New(root, store)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range pairs {
		got, err := tr2.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("reopened Get(%s) = %q, %v", k, got, err)
		}
	}
	// Mutating the reopened trie must not disturb the old committed root.
	if err := tr2.Put([]byte("epsilon"), []byte("7")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.Commit(); err != nil {
		t.Fatal(err)
	}
	tr3, err := New(root, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr3.Get([]byte("epsilon")); !errors.Is(err, ErrNotFound) {
		t.Error("old root sees new key: snapshots not isolated")
	}
	got, err := tr3.Get([]byte("alpha"))
	if err != nil || string(got) != "1" {
		t.Errorf("old root Get(alpha) = %q, %v", got, err)
	}
}

func TestReopenAndDelete(t *testing.T) {
	store := NewMemStore()
	tr, _ := New(EmptyRoot, store)
	for i := 0; i < 100; i++ {
		k := []byte{byte(i), byte(i * 7)}
		if err := tr.Put(k, bytes.Repeat([]byte{byte(i)}, 33)); err != nil {
			t.Fatal(err)
		}
	}
	root, err := tr.Commit()
	if err != nil {
		t.Fatal(err)
	}
	tr2, _ := New(root, store)
	for i := 0; i < 100; i += 2 {
		if err := tr2.Delete([]byte{byte(i), byte(i * 7)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 100; i += 2 {
		got, err := tr2.Get([]byte{byte(i), byte(i * 7)})
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 33)) {
			t.Fatalf("Get(%d) after deletes = %x, %v", i, got, err)
		}
	}
	// Root must equal a freshly-built trie with only odd keys.
	fresh, _ := New(EmptyRoot, NewMemStore())
	for i := 1; i < 100; i += 2 {
		if err := fresh.Put([]byte{byte(i), byte(i * 7)}, bytes.Repeat([]byte{byte(i)}, 33)); err != nil {
			t.Fatal(err)
		}
	}
	h2, _ := tr2.Hash()
	hf, _ := fresh.Hash()
	if h2 != hf {
		t.Errorf("post-delete root %s != fresh root %s", h2, hf)
	}
}

func TestHexPrefixRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		n := r.Intn(20)
		nibbles := make([]byte, n)
		for j := range nibbles {
			nibbles[j] = byte(r.Intn(16))
		}
		for _, leaf := range []bool{true, false} {
			enc := appendHexPrefix(nil, nibbles, leaf)
			back, gotLeaf, err := parseHexPrefix(enc)
			if err != nil {
				t.Fatal(err)
			}
			if gotLeaf != leaf || !bytes.Equal(back, nibbles) {
				t.Fatalf("hexPrefix round trip failed: %x leaf=%v -> %x leaf=%v",
					nibbles, leaf, back, gotLeaf)
			}
		}
	}
}

func BenchmarkPut(b *testing.B) {
	tr, _ := New(EmptyRoot, NewMemStore())
	var k [8]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(k[:], uint64(i))
		if err := tr.Put(k[:], k[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHash1k(b *testing.B) {
	tr, _ := New(EmptyRoot, NewMemStore())
	var k [8]byte
	for i := 0; i < 1000; i++ {
		binary.BigEndian.PutUint64(k[:], uint64(i))
		if err := tr.Put(k[:], bytes.Repeat(k[:], 4)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Hash(); err != nil {
			b.Fatal(err)
		}
	}
}
