// Package blob is the artifact-store seam shared by the sweep result cache
// (internal/sweep), the checkpoint store (internal/ckpt), and the
// distributed sweep fabric (internal/fabric): a flat namespace of immutable,
// content-addressed objects. Because every producer derives an object's name
// from a collision-resistant hash of everything that determines its content
// (job cache keys, program digests), writers never disagree about a name's
// bytes — which is what makes the read-through and last-write-wins semantics
// below safe.
//
// The package-level directive holds every function here to the determinism
// analyzer: object bytes feed bit-identical artifacts, so nothing in the
// storage layer may depend on wall-clock or map order.
//
//repro:deterministic
package blob

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Store is a flat key/value object store. Names are file-name-like tokens
// (hex digests plus a short suffix); implementations must reject anything
// that could escape a directory. Get returns ok=false for an absent object;
// the error return is reserved for store breakage (I/O failure, unreachable
// backend). Put must be atomic: a concurrent Get sees either the full object
// or nothing, never a torn write.
type Store interface {
	Get(name string) (data []byte, ok bool, err error)
	Put(name string, data []byte) error
}

// ValidName reports whether name is a safe flat object name: non-empty, no
// path separators, and no leading dot (which excludes "..", ".", and temp
// files).
func ValidName(name string) bool {
	if name == "" || len(name) > 255 || strings.HasPrefix(name, ".") {
		return false
	}
	return !strings.ContainsAny(name, "/\\")
}

// Dir is the local-filesystem Store: one file per object in a flat
// directory. It is the storage layer under the sweep result cache and the
// checkpoint store, and the persistent side of a read-through cache.
type Dir struct {
	dir string
}

// NewDir opens (creating if needed) a directory store.
func NewDir(dir string) (*Dir, error) {
	if dir == "" {
		return nil, fmt.Errorf("blob: empty store dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blob: create store: %w", err)
	}
	return &Dir{dir: dir}, nil
}

// Get implements Store.
func (d *Dir) Get(name string) ([]byte, bool, error) {
	if !ValidName(name) {
		return nil, false, fmt.Errorf("blob: bad object name %q", name)
	}
	data, err := os.ReadFile(filepath.Join(d.dir, name))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// Put implements Store atomically (temp file + rename), so concurrent
// writers of the same name are safe: last rename wins and both wrote
// identical bytes.
func (d *Dir) Put(name string, data []byte) error {
	if !ValidName(name) {
		return fmt.Errorf("blob: bad object name %q", name)
	}
	return WriteFileAtomic(filepath.Join(d.dir, name), data)
}

// WriteFileAtomic writes data via a temp file + rename in the target's
// directory — the durability idiom every artifact writer in the repo shares.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadThrough layers a local Store over a (typically remote) backing Store:
// Get serves from Local when possible and otherwise fills Local from Back;
// Put writes Back first (the shared truth other machines see), then Local.
// Object immutability makes the cache trivially coherent — there is no
// invalidation, an object name either resolves to its one value or is
// absent.
type ReadThrough struct {
	Local Store
	Back  Store
}

// Get implements Store with read-through fill.
func (r *ReadThrough) Get(name string) ([]byte, bool, error) {
	if data, ok, err := r.Local.Get(name); err != nil || ok {
		return data, ok, err
	}
	data, ok, err := r.Back.Get(name)
	if err != nil || !ok {
		return nil, false, err
	}
	// A local fill failure only costs a future refetch; the Get succeeded.
	_ = r.Local.Put(name, data)
	return data, true, nil
}

// Put implements Store, writing the backing store first so a crash between
// the two writes can only lose the local copy (refetched on demand), never
// strand an object that exists locally but not in the shared store.
func (r *ReadThrough) Put(name string, data []byte) error {
	if err := r.Back.Put(name, data); err != nil {
		return err
	}
	return r.Local.Put(name, data)
}
