package sweep

import (
	"encoding/json"
	"fmt"

	"repro/internal/blob"
)

// Cache is the content-addressed result store shared across sweeps: one
// JSON object per job, named by the job's Key. Because the key covers every
// behavior-affecting parameter plus SchemaVersion, a hit is always safe to
// reuse; re-running any sweep only executes the missing points.
//
// Storage is pluggable through blob.Store: NewCache keeps the classic
// local-directory layout, while the sweep fabric mounts the same cache over
// a read-through remote store so hits are shared across machines.
type Cache struct {
	store blob.Store
}

// cacheEntry is the stored cache record. The job is stored alongside the
// result for human inspection and as a belt-and-braces identity check.
type cacheEntry struct {
	SchemaVersion int       `json:"schema_version"`
	Job           Job       `json:"job"`
	Result        JobResult `json:"result"`
}

// NewCache opens (creating if needed) a cache rooted at a local dir.
func NewCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: empty cache dir")
	}
	d, err := blob.NewDir(dir)
	if err != nil {
		return nil, err
	}
	return &Cache{store: d}, nil
}

// NewCacheStore opens a cache over an arbitrary object store — the seam the
// fabric uses to back the result cache with the coordinator's shared
// artifact store.
func NewCacheStore(store blob.Store) *Cache {
	return &Cache{store: store}
}

// objectName is the store name serving a job key.
func objectName(key string) string { return key + ".json" }

// Get looks the key up. Unreadable or schema-mismatched entries count as
// misses (the sweep simply recomputes and overwrites them), and so do store
// errors: a flaky backend degrades to recomputation, never to failure.
func (c *Cache) Get(key string) (JobResult, bool) {
	if c == nil {
		return JobResult{}, false
	}
	data, ok, err := c.store.Get(objectName(key))
	if err != nil || !ok {
		return JobResult{}, false
	}
	var e cacheEntry
	if json.Unmarshal(data, &e) != nil || e.SchemaVersion != SchemaVersion {
		return JobResult{}, false
	}
	return e.Result, true
}

// Put stores a result under the key. Writes are atomic at the store layer,
// so a concurrent reader or a crash can never observe a torn entry.
func (c *Cache) Put(key string, job Job, res JobResult) error {
	if c == nil {
		return nil
	}
	data, err := json.MarshalIndent(cacheEntry{SchemaVersion: SchemaVersion, Job: job, Result: res}, "", "\t")
	if err != nil {
		return err
	}
	return c.store.Put(objectName(key), append(data, '\n'))
}
