package store

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestStoreConformance pins the KV's key/value contract: get, overwrite,
// list, atomic batches, key validation and use after Close. The
// "kv" subtest name is kept from when several backends ran it.
func TestStoreConformance(t *testing.T) {
	t.Run("kv", testKVConformance)
}

func testKVConformance(t *testing.T) {
	kv := openKVT(t, t.TempDir(), KVOptions{})
	defer kv.Close()

	mustAbsent(t, kv, "nope")

	if err := kv.PutValue("a/b/one", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := kv.PutValue("a/two", []byte("second")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, kv, "a/b/one", "first")

	// Overwrite replaces wholesale.
	if err := kv.PutValue("a/b/one", []byte("FIRST2")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, kv, "a/b/one", "FIRST2")
	// Get returns a private copy: scribbling on it changes nothing stored.
	got, _ := kv.Get("a/b/one")
	copy(got, "xxxxxx")
	mustGet(t, kv, "a/b/one", "FIRST2")

	keys, err := kv.List("a/")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a/b/one", "a/two"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("List(a/) = %v, want %v", keys, want)
	}
	keys, err = kv.List("a/b/")
	if err != nil || len(keys) != 1 || keys[0] != "a/b/one" {
		t.Fatalf("List(a/b/) = %v, %v", keys, err)
	}

	// A batch with one bad key publishes nothing.
	if err := kv.Apply([]Op{{Key: "a/b/one", Val: []byte("partial")}, {Key: "../bad"}}); err == nil {
		t.Fatal("Apply accepted a batch with a hostile key")
	}
	mustGet(t, kv, "a/b/one", "FIRST2")

	// Hostile and malformed keys are rejected on every entry point.
	for _, bad := range []string{"", "/abs", "trail/", "a//b", "../up", "a/../b", "a\x00b", "a\\b"} {
		if err := kv.PutValue(bad, []byte("x")); err == nil {
			t.Errorf("PutValue(%q) accepted a hostile key", bad)
		}
		if _, err := kv.Get(bad); err == nil || errors.Is(err, ErrNotFound) {
			t.Errorf("Get(%q) = %v, want validation error", bad, err)
		}
	}

	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := kv.Get("a/b/one"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
	if err := kv.PutValue("a/b/one", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("PutValue after Close = %v, want ErrClosed", err)
	}
}

// TestOpenSnapshotStableAcrossOverwrite pins the reader contract: a value
// read before an overwrite keeps its old bytes, because Get returns a copy
// of an immutable log region.
func TestOpenSnapshotStableAcrossOverwrite(t *testing.T) {
	t.Run("kv", func(t *testing.T) {
		kv := openKVT(t, t.TempDir(), KVOptions{})
		defer kv.Close()
		if err := kv.PutValue("k", []byte("old-value")); err != nil {
			t.Fatal(err)
		}
		old, err := kv.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		if err := kv.PutValue("k", []byte("new-value")); err != nil {
			t.Fatal(err)
		}
		mustGet(t, kv, "k", "new-value")
		if string(old) != "old-value" {
			t.Fatalf("value read before the overwrite changed to %q", old)
		}
	})
}

func TestValidateKey(t *testing.T) {
	for _, good := range []string{"a", "a/b", "models/" + fmt.Sprintf("%064d", 0), "with-dash_and.dot"} {
		if err := ValidateKey(good); err != nil {
			t.Errorf("ValidateKey(%q) = %v", good, err)
		}
	}
	long := make([]byte, maxKeyLen+1)
	for i := range long {
		long[i] = 'k'
	}
	for _, bad := range []string{"", "/", "/a", "a/", "a//b", ".", "..", "a/./b", "a/../b", "a\x7fb", string(long)} {
		if err := ValidateKey(bad); err == nil {
			t.Errorf("ValidateKey(%q) accepted", bad)
		}
	}
}
