// Package registry is the content-addressed model registry: trained
// networks become versioned artifacts keyed by the SHA-256 of their
// canonical encoding, with a manifest recording provenance — which
// campaign (by config hash) and scenario the model was trained on, with
// what parameters, and which model it was fine-tuned from.
//
// Keys in the registry's store.KV:
//
//	models/<sha256>     canonical model bytes (core.VVD.Save)
//	manifests/<sha256>  provenance manifest, JSON
//	tags/<name>         per-name version pointer: latest hash + history
//
// One registration is one KV batch (one WAL record, one fsync), so a
// crash leaves either the whole registration or none of it.
//
// Consumers address models as "<name>@latest", "<name>@<hash-prefix>" or
// "@<hash-prefix>" instead of loose file paths; Load re-hashes the blob
// and refuses to return bytes that do not match their address, so a
// served model is bit-identical to the registered artifact by
// construction. Storage is content-addressed: registering the same
// weights twice under two names stores one blob.
package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/store"
)

// Manifest records a model artifact's provenance. Hash is assigned by
// Put; everything else is supplied by the trainer.
type Manifest struct {
	Name string `json:"name"`           // artifact name ("vvd-current")
	Hash string `json:"hash,omitempty"` // SHA-256 of the canonical encoding (set by Put)

	// Provenance.
	CampaignHash string  `json:"campaign_hash,omitempty"` // CampaignConfigHash of the training campaign
	Scenario     string  `json:"scenario,omitempty"`      // scenario preset the campaign was generated from
	Combo        int     `json:"combo,omitempty"`         // Table 2 combination trained on
	Variant      string  `json:"variant,omitempty"`       // image lag variant (current | 33ms | 100ms)
	Epochs       int     `json:"epochs,omitempty"`
	Batch        int     `json:"batch,omitempty"`
	LR           float64 `json:"lr,omitempty"`
	Seed         uint64  `json:"seed,omitempty"`
	Parent       string  `json:"parent,omitempty"` // hash of the model this one was fine-tuned from
}

// tagFile is the per-name version pointer.
type tagFile struct {
	Latest  string   `json:"latest"`
	History []string `json:"history"` // oldest → newest, ending with Latest
}

const (
	modelPrefix    = "models/"
	manifestPrefix = "manifests/"
	tagPrefix      = "tags/"
)

// Registry is a content-addressed model catalog over a store.KV.
type Registry struct {
	kv *store.KV
}

// New wraps an open KV as a registry. Close closes the KV.
func New(kv *store.KV) *Registry { return &Registry{kv: kv} }

// OpenDir opens the registry in dir, which must exist (vvd-train
// creates it; a reader given a mistyped path gets an error, not a new
// empty registry). A directory in the file-per-key layout of earlier
// releases is refused by name before anything is written into it.
func OpenDir(dir string) (*Registry, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	for _, old := range []string{modelPrefix, manifestPrefix, tagPrefix} {
		if _, err := os.Stat(filepath.Join(dir, old)); err == nil {
			return nil, fmt.Errorf("registry: %s is in the old file-per-key layout (it has %s); re-register its models into a new directory", dir, old)
		}
	}
	kv, err := store.OpenKV(dir, store.KVOptions{})
	if err != nil {
		return nil, err
	}
	return New(kv), nil
}

// Close releases the registry's KV (and its directory lock).
func (r *Registry) Close() error { return r.kv.Close() }

// Encode renders the canonical model encoding and its content hash. The
// encoding is core.VVD.Save — deterministic for given weights — so equal
// models hash equal and a reloaded model re-encodes to the same hash.
func Encode(v *core.VVD) ([]byte, string, error) {
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		return nil, "", fmt.Errorf("registry: encoding model: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return buf.Bytes(), hex.EncodeToString(sum[:]), nil
}

// CampaignConfigHash fingerprints the world a campaign was generated
// from: the SHA-256 of its serialized Config — the same JSON the
// campaign store carries in its header, which excludes pure execution
// knobs (Workers) by construction.
func CampaignConfigHash(cfg dataset.Config) (string, error) {
	data, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("registry: hashing campaign config: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// validName rejects artifact names that cannot round-trip through a ref
// or a backend key.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("registry: empty artifact name")
	}
	if strings.ContainsAny(name, "@/") {
		return fmt.Errorf("registry: artifact name %q must not contain '@' or '/'", name)
	}
	return store.ValidateKey(name)
}

// Put registers a model: the canonical blob under its content hash, the
// manifest beside it, and the name's tag advanced to the new version,
// all committed in one KV batch. Returns the completed manifest.
// Registering identical weights again stores the blob once: the batch
// then carries only the manifest and the tag.
func (r *Registry) Put(v *core.VVD, m Manifest) (Manifest, error) {
	if err := validName(m.Name); err != nil {
		return Manifest{}, err
	}
	data, hash, err := Encode(v)
	if err != nil {
		return Manifest{}, err
	}
	m.Hash = hash
	mJSON, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return Manifest{}, fmt.Errorf("registry: encoding manifest: %w", err)
	}
	var tag tagFile
	if data, err := r.kv.Get(tagPrefix + m.Name); err == nil {
		if err := json.Unmarshal(data, &tag); err != nil {
			return Manifest{}, fmt.Errorf("registry: corrupt tag %s: %w", m.Name, err)
		}
	} else if !isNotFound(err) {
		return Manifest{}, err
	}
	tag.Latest = hash
	if n := len(tag.History); n == 0 || tag.History[n-1] != hash {
		tag.History = append(tag.History, hash)
	}
	tagJSON, err := json.MarshalIndent(tag, "", "  ")
	if err != nil {
		return Manifest{}, fmt.Errorf("registry: encoding tag: %w", err)
	}
	ops := []store.Op{
		{Key: manifestPrefix + hash, Val: append(mJSON, '\n')},
		{Key: tagPrefix + m.Name, Val: append(tagJSON, '\n')},
	}
	// The blob is content-addressed: identical weights registered again
	// are already in the log, so only the manifest and tag are appended.
	have, err := r.kv.List(modelPrefix + hash)
	if err != nil {
		return Manifest{}, err
	}
	if !slices.Contains(have, modelPrefix+hash) {
		ops = append([]store.Op{{Key: modelPrefix + hash, Val: data}}, ops...)
	}
	if err := r.kv.Apply(ops); err != nil {
		return Manifest{}, fmt.Errorf("registry: storing model %s: %w", shortHash(hash), err)
	}
	return m, nil
}

func isNotFound(err error) bool { return errors.Is(err, store.ErrNotFound) }

// Resolve turns a ref into a full content hash. Accepted forms:
//
//	name            → the name's latest version
//	name@latest     → the same
//	name@<hashpfx>  → that version, verified to belong to name
//	@<hashpfx>      → any model by unique hash prefix (≥ 8 hex chars)
func (r *Registry) Resolve(ref string) (string, error) {
	name, ver := ref, ""
	if i := strings.LastIndexByte(ref, '@'); i >= 0 {
		name, ver = ref[:i], ref[i+1:]
	}
	if ver == "" || ver == "latest" {
		if err := validName(name); err != nil {
			return "", err
		}
		data, err := r.kv.Get(tagPrefix + name)
		if isNotFound(err) {
			return "", fmt.Errorf("registry: no model named %q", name)
		}
		if err != nil {
			return "", err
		}
		var tag tagFile
		if err := json.Unmarshal(data, &tag); err != nil {
			return "", fmt.Errorf("registry: corrupt tag %s: %w", name, err)
		}
		if tag.Latest == "" {
			return "", fmt.Errorf("registry: tag %q has no latest version", name)
		}
		return tag.Latest, nil
	}
	hash, err := r.expandHash(ver)
	if err != nil {
		return "", err
	}
	if name != "" {
		m, err := r.Manifest(hash)
		if err != nil {
			return "", err
		}
		if m.Name != name {
			return "", fmt.Errorf("registry: model %s is named %q, not %q", shortHash(hash), m.Name, name)
		}
	}
	return hash, nil
}

// expandHash resolves a (possibly partial) content hash against the
// stored blobs.
func (r *Registry) expandHash(pfx string) (string, error) {
	if len(pfx) < 8 {
		return "", fmt.Errorf("registry: hash prefix %q too short (need ≥ 8 hex chars)", pfx)
	}
	if len(pfx) > 64 {
		return "", fmt.Errorf("registry: hash %q longer than a SHA-256", pfx)
	}
	for i := 0; i < len(pfx); i++ {
		if c := pfx[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("registry: hash prefix %q is not lowercase hex", pfx)
		}
	}
	keys, err := r.kv.List(modelPrefix + pfx)
	if err != nil {
		return "", err
	}
	switch len(keys) {
	case 0:
		return "", fmt.Errorf("registry: no model with hash prefix %q", pfx)
	case 1:
		return strings.TrimPrefix(keys[0], modelPrefix), nil
	default:
		return "", fmt.Errorf("registry: hash prefix %q is ambiguous (%d matches)", pfx, len(keys))
	}
}

// Manifest returns the stored manifest for a full content hash.
func (r *Registry) Manifest(hash string) (Manifest, error) {
	data, err := r.kv.Get(manifestPrefix + hash)
	if isNotFound(err) {
		return Manifest{}, fmt.Errorf("registry: no manifest for model %s", shortHash(hash))
	}
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("registry: corrupt manifest %s: %w", shortHash(hash), err)
	}
	return m, nil
}

// Load resolves a ref, fetches the blob, verifies it still hashes to its
// address, and decodes the model. The verification is what makes
// "model@hash" a guarantee rather than a naming convention: a flipped
// bit anywhere in the artifact fails the load instead of serving.
func (r *Registry) Load(ref string) (*core.VVD, Manifest, error) {
	hash, err := r.Resolve(ref)
	if err != nil {
		return nil, Manifest{}, err
	}
	data, err := r.kv.Get(modelPrefix + hash)
	if isNotFound(err) {
		return nil, Manifest{}, fmt.Errorf("registry: model blob %s missing", shortHash(hash))
	}
	if err != nil {
		return nil, Manifest{}, err
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != hash {
		return nil, Manifest{}, fmt.Errorf("registry: model %s fails content verification (stored bytes hash to %s)", shortHash(hash), shortHash(got))
	}
	v, err := core.LoadModel(bytes.NewReader(data))
	if err != nil {
		return nil, Manifest{}, fmt.Errorf("registry: decoding model %s: %w", shortHash(hash), err)
	}
	m, err := r.Manifest(hash)
	if err != nil {
		// A blob without a manifest is loadable but anonymous.
		m = Manifest{Hash: hash}
	}
	return v, m, nil
}

// List returns every registered manifest, sorted by name then hash.
func (r *Registry) List() ([]Manifest, error) {
	keys, err := r.kv.List(manifestPrefix)
	if err != nil {
		return nil, err
	}
	out := make([]Manifest, 0, len(keys))
	for _, k := range keys {
		m, err := r.Manifest(strings.TrimPrefix(k, manifestPrefix))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Hash < out[j].Hash
	})
	return out, nil
}

// IsRef reports whether a CLI -model argument addresses the registry
// ("name@version") rather than a file path.
func IsRef(s string) bool { return strings.Contains(s, "@") }

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
