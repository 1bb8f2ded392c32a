package store

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FileStore is the directory backend: each key is one file under the
// store root, written atomically (WriteAtomic), so the on-disk layout is
// exactly what the loose-file workflow produced — a campaign Put under
// "campaigns/run1" is byte-identical to `vvd-dataset -out root/campaigns/run1`
// — but a crash can no longer leave a torn artifact at a key.
type FileStore struct {
	root string
}

// NewFileStore opens (creating if needed) a file-backed store rooted at dir.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating root %s: %w", dir, err)
	}
	return &FileStore{root: dir}, nil
}

func (s *FileStore) path(key string) (string, error) {
	if err := ValidateKey(key); err != nil {
		return "", err
	}
	return filepath.Join(s.root, filepath.FromSlash(key)), nil
}

// Put implements Store: parent directories are created on demand and the
// file is committed with the atomic temp → fsync → rename sequence.
func (s *FileStore) Put(key string, write func(w io.Writer) error) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("store: creating parent of %s: %w", key, err)
	}
	return WriteAtomic(p, write)
}

// Open implements Store.
func (s *FileStore) Open(key string) (io.ReadCloser, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return f, err
}

// Delete implements Store.
func (s *FileStore) Delete(key string) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	err = os.Remove(p)
	if os.IsNotExist(err) {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return err
}

// List implements Store. In-flight temp files (".*.tmp-*") are invisible:
// a concurrent or crashed Put never surfaces as a key.
func (s *FileStore) List(prefix string) ([]string, error) {
	var keys []string
	err := filepath.WalkDir(s.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-") {
			return nil
		}
		rel, err := filepath.Rel(s.root, p)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(keys)
	return keys, nil
}

// Close implements Store (no resources are held between calls).
func (s *FileStore) Close() error { return nil }
