package registry_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/nn"
	"vvd/internal/store"
	"vvd/internal/store/registry"
)

// tinyModel builds a deterministic small VVD; different seeds give
// different weights and therefore different content hashes.
func tinyModel(t *testing.T, seed uint64) *core.VVD {
	t.Helper()
	arch := core.Arch{Conv1: 2, Conv2: 2, Conv3: 4, Conv4: 4, Dense: 16, Pool: nn.AvgPool}
	net, err := core.BuildNetwork(arch, rand.New(rand.NewPCG(seed, seed^0xbeef)))
	if err != nil {
		t.Fatal(err)
	}
	mean := make([]complex128, core.OutputTaps)
	for i := range mean {
		mean[i] = complex(float64(i)*0.25, -0.5)
	}
	return &core.VVD{Net: net, Norm: 1.5, Mean: mean, Lag: dataset.LagCurrent}
}

// openKV opens a KV in a fresh directory; the registry over it is
// closed (and the KV with it) when the test ends.
func openKV(t *testing.T) (*registry.Registry, *store.KV) {
	t.Helper()
	kv, err := store.OpenKV(t.TempDir(), store.KVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(kv)
	t.Cleanup(func() { reg.Close() })
	return reg, kv
}

func TestPutLoadRoundTripBitIdentical(t *testing.T) {
	reg, _ := openKV(t)
	v := tinyModel(t, 1)
	want, wantHash, err := registry.Encode(v)
	if err != nil {
		t.Fatal(err)
	}

	m, err := reg.Put(v, registry.Manifest{
		Name: "vvd-current", Scenario: "crowded-room-4", Combo: 3,
		Variant: "current", Epochs: 24, Batch: 16, LR: 1.2e-3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Hash != wantHash {
		t.Fatalf("Put assigned hash %s, want the canonical encoding's %s", m.Hash, wantHash)
	}
	sum := sha256.Sum256(want)
	if m.Hash != hex.EncodeToString(sum[:]) {
		t.Fatal("hash is not the SHA-256 of the canonical encoding")
	}

	for _, ref := range []string{
		"vvd-current",
		"vvd-current@latest",
		"vvd-current@" + m.Hash,
		"vvd-current@" + m.Hash[:12],
		"@" + m.Hash[:12],
	} {
		loaded, lm, err := reg.Load(ref)
		if err != nil {
			t.Fatalf("Load(%s): %v", ref, err)
		}
		got, gotHash, err := registry.Encode(loaded)
		if err != nil {
			t.Fatal(err)
		}
		if gotHash != wantHash || !bytes.Equal(got, want) {
			t.Fatalf("Load(%s) is not bit-identical to the registered artifact", ref)
		}
		if lm.Scenario != "crowded-room-4" || lm.Combo != 3 || lm.Seed != 7 {
			t.Fatalf("Load(%s) manifest lost provenance: %+v", ref, lm)
		}
	}
}

func TestVersionsAndLatest(t *testing.T) {
	reg, _ := openKV(t)
	v1, v2 := tinyModel(t, 1), tinyModel(t, 2)
	m1, err := reg.Put(v1, registry.Manifest{Name: "vvd-current"})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := reg.Put(v2, registry.Manifest{Name: "vvd-current", Parent: m1.Hash})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Hash == m2.Hash {
		t.Fatal("different weights produced the same content hash")
	}

	// @latest is the second version; the first stays addressable by hash.
	_, lm, err := reg.Load("vvd-current@latest")
	if err != nil || lm.Hash != m2.Hash {
		t.Fatalf("latest resolved to %s (%v), want %s", lm.Hash, err, m2.Hash)
	}
	if lm.Parent != m1.Hash {
		t.Fatalf("latest manifest parent = %s, want %s", lm.Parent, m1.Hash)
	}
	_, old, err := reg.Load("vvd-current@" + m1.Hash[:16])
	if err != nil || old.Hash != m1.Hash {
		t.Fatalf("old version by prefix: %s, %v", old.Hash, err)
	}

	all, err := reg.List()
	if err != nil || len(all) != 2 {
		t.Fatalf("List = %d manifests, %v", len(all), err)
	}
}

func TestContentAddressingDedupes(t *testing.T) {
	reg, kv := openKV(t)
	v := tinyModel(t, 3)
	m1, err := reg.Put(v, registry.Manifest{Name: "name-a"})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := reg.Put(v, registry.Manifest{Name: "name-b"})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Hash != m2.Hash {
		t.Fatal("identical weights under two names hashed differently")
	}
	blobs, err := kv.List("models/")
	if err != nil || len(blobs) != 1 {
		t.Fatalf("stored %d blobs for identical weights, want 1 (%v)", len(blobs), err)
	}
}

func TestResolveErrors(t *testing.T) {
	reg, _ := openKV(t)
	m, err := reg.Put(tinyModel(t, 4), registry.Manifest{Name: "real"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ ref, want string }{
		{"ghost", "no model named"},
		{"ghost@latest", "no model named"},
		{"@" + m.Hash[:4], "too short"},
		{"@abcd1234", "no model with hash prefix"},
		{"@" + strings.ToUpper(m.Hash[:12]), "not lowercase hex"},
		{"@" + m.Hash + "00", "longer than a SHA-256"},
		{"wrong-name@" + m.Hash[:12], `is named "real"`},
		{"bad/name@latest", "must not contain"},
	}
	for _, c := range cases {
		if _, err := reg.Resolve(c.ref); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Resolve(%q) = %v, want %q", c.ref, err, c.want)
		}
	}

	// Odd-length prefixes are legitimate.
	if _, err := reg.Resolve("@" + m.Hash[:9]); err != nil {
		t.Errorf("Resolve with 9-char prefix: %v", err)
	}
}

// TestPutIsOneWALRecord pins that a registration commits as one batch:
// each Put, re-registering identical weights included, adds exactly one
// record to the log (one fsync, and no crash point between the blob, the
// manifest and the tag). The re-registration's record carries no second
// copy of the blob.
func TestPutIsOneWALRecord(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "wal-00000001.seg")
	var segSize int64
	for i, seed := range []uint64{1, 2, 1} {
		reg, err := registry.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		v := tinyModel(t, seed)
		if _, err := reg.Put(v, registry.Manifest{Name: "vvd-current"}); err != nil {
			t.Fatal(err)
		}
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		blob, _, err := registry.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if grew := info.Size() - segSize; i == 2 && grew >= int64(len(blob)) {
			t.Fatalf("re-registering identical weights grew the log by %d bytes, blob is %d", grew, len(blob))
		}
		segSize = info.Size()
		kv, err := store.OpenKV(dir, store.KVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rec := kv.Recovery()
		kv.Close()
		if rec.Records != i+1 || rec.TornTail != nil {
			t.Fatalf("after %d Puts the log replays %+v, want %d clean records", i+1, rec, i+1)
		}
	}
}

// flipModelBit flips one bit in the middle of the model's bytes inside
// the registry's first WAL segment, in place.
func flipModelBit(t *testing.T, dir string, model []byte) {
	t.Helper()
	seg := filepath.Join(dir, "wal-00000001.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(data, model)
	if off < 0 {
		t.Fatal("model bytes not found in the segment")
	}
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	mid := off + len(model)/2
	if _, err := f.WriteAt([]byte{data[mid] ^ 0x04}, int64(mid)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadDetectsCorruption pins that a model differing from its address
// is never served. A bit flipped inside the stored model fails Load's
// re-hash on the open registry. After a reopen, the WAL's CRC sees it
// first: as the last record it is a torn tail, truncated away, so the
// model is gone; followed by another registration it is mid-log
// corruption, and OpenDir refuses the directory.
func TestLoadDetectsCorruption(t *testing.T) {
	for _, followed := range []bool{false, true} {
		t.Run(map[bool]string{false: "last_record", true: "mid_log"}[followed], func(t *testing.T) {
			dir := t.TempDir()
			reg, err := registry.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			v := tinyModel(t, 5)
			m, err := reg.Put(v, registry.Manifest{Name: "vvd-current"})
			if err != nil {
				t.Fatal(err)
			}
			if followed {
				if _, err := reg.Put(tinyModel(t, 6), registry.Manifest{Name: "other"}); err != nil {
					t.Fatal(err)
				}
			}
			data, _, err := registry.Encode(v)
			if err != nil {
				t.Fatal(err)
			}
			flipModelBit(t, dir, data)
			if _, _, err := reg.Load("vvd-current@latest"); err == nil || !strings.Contains(err.Error(), "content verification") {
				t.Fatalf("Load over a corrupt blob = %v, want content-verification failure", err)
			}
			if err := reg.Close(); err != nil {
				t.Fatal(err)
			}

			reg, err = registry.OpenDir(dir)
			if followed {
				if err == nil || !strings.Contains(err.Error(), "mid-log") {
					t.Fatalf("OpenDir over mid-log corruption = %v, want refusal", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer reg.Close()
			if _, _, err := reg.Load("vvd-current@latest"); err == nil || !strings.Contains(err.Error(), "no model named") {
				t.Fatalf("Load after the torn registration = %v, want no such model", err)
			}
			if _, _, err := reg.Load("@" + m.Hash[:12]); err == nil || !strings.Contains(err.Error(), "no model with hash prefix") {
				t.Fatalf("Load by hash after the torn registration = %v, want no such model", err)
			}
		})
	}
}

// tree lists every path under dir, relative, sorted.
func tree(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(p string, _ fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		paths = append(paths, rel)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestOpenDirRefusesWithoutWriting pins that OpenDir's two refusals
// leave the filesystem exactly as they found it: a missing directory is
// not created (so a mistyped -registry path cannot become an empty
// registry), and a directory in the old file-per-key layout is refused
// by name with nothing written into it.
func TestOpenDirRefusesWithoutWriting(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "typo")
	if _, err := registry.OpenDir(missing); err == nil {
		t.Fatal("OpenDir on a missing directory succeeded")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("OpenDir created the missing directory (stat: %v)", err)
	}

	for _, old := range []string{"models", "manifests", "tags"} {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, old), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, old, "vvd-current"), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		before := tree(t, dir)
		_, err := registry.OpenDir(dir)
		if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "old file-per-key layout") {
			t.Fatalf("OpenDir on an old %s/ layout = %v, want a refusal naming %s", old, err, dir)
		}
		if after := tree(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("refused OpenDir changed the directory: %v → %v", before, after)
		}
	}
}

func TestPutNameValidation(t *testing.T) {
	reg, _ := openKV(t)
	v := tinyModel(t, 6)
	for _, bad := range []string{"", "a@b", "a/b", "has\x00nul"} {
		if _, err := reg.Put(v, registry.Manifest{Name: bad}); err == nil {
			t.Errorf("Put accepted artifact name %q", bad)
		}
	}
}

// TestCampaignConfigHash pins what the provenance hash covers: the
// generated world, not execution knobs.
func TestCampaignConfigHash(t *testing.T) {
	cfg := dataset.DefaultConfig()
	h1, err := registry.CampaignConfigHash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := cfg
	same.Workers = 7 // execution knob: excluded from the serialized config
	h2, err := registry.CampaignConfigHash(same)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("Workers changed the campaign config hash")
	}
	diff := cfg
	diff.Seed++
	h3, err := registry.CampaignConfigHash(diff)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("a different seed hashed to the same campaign config")
	}
}

func TestIsRef(t *testing.T) {
	for s, want := range map[string]bool{
		"vvd.model": false, "./models/x": false,
		"vvd-current@latest": true, "@ab12cd34": true, "name@ab12cd34": true,
	} {
		if registry.IsRef(s) != want {
			t.Errorf("IsRef(%q) = %v, want %v", s, !want, want)
		}
	}
}
