package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Source says where a result came from. The zero value, SourceComputed,
// doubles as "cache miss" inside the cache: a missed lookup is about to
// be computed.
type Source int

const (
	// SourceComputed marks a freshly executed job (a cache miss).
	SourceComputed Source = iota
	// SourceMemory marks a hit in the process-local result map,
	// including results shared with a concurrent in-flight computation.
	SourceMemory
	// SourceDisk marks a result replayed from the on-disk cache.
	SourceDisk
	// SourcePeer marks a result fetched from another cluster node's
	// cache tier and adopted locally.
	SourcePeer
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceComputed:
		return "computed"
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	case SourcePeer:
		return "peer"
	}
	return fmt.Sprintf("Source(%d)", int(s))
}

// cache is the two-level result store: a process-local map keyed by
// job hash, backed by an optional content-addressed directory of
// <hash>.json files. Disk failures are deliberately soft — a sweep
// never fails because an artifact could not be written or parsed; the
// job is simply recomputed.
type resultCache struct {
	dir string

	mu  sync.RWMutex
	mem map[string]*Result
}

func newCache(dir string) *resultCache {
	return &resultCache{dir: dir, mem: make(map[string]*Result)}
}

func (c *resultCache) path(hash string) string {
	return filepath.Join(c.dir, hash+".json")
}

// get looks a hash up in memory, then on disk. Disk hits are promoted
// into memory so repeated lookups return the same *Result. A
// truncated, corrupt, or mislabeled artifact is treated as a miss and
// deleted; the recompute's put rewrites it atomically. Mislabeled
// means the stored hash, or the hash re-derived from the stored job,
// differs from the file name (Engine.Adopt's gate for the peer tier):
// an artifact whose job was edited, or was written by a build whose Job
// had a field this one lacks, must not be served as another
// experiment's result.
func (c *resultCache) get(hash string) (*Result, Source) {
	c.mu.RLock()
	r, ok := c.mem[hash]
	c.mu.RUnlock()
	if ok {
		return r, SourceMemory
	}
	// ValidHash gates every disk touch: get both reads and (on a corrupt
	// artifact) removes c.path(hash), so a malformed externally supplied
	// hash must never become a path component.
	if c.dir == "" || !ValidHash(hash) {
		return nil, SourceComputed
	}
	raw, err := os.ReadFile(c.path(hash))
	if err != nil {
		return nil, SourceComputed
	}
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil || res.Hash != hash || res.Job.Hash() != hash {
		os.Remove(c.path(hash))
		return nil, SourceComputed
	}
	c.mu.Lock()
	if prior, ok := c.mem[hash]; ok {
		// Another worker promoted it first; keep one canonical object.
		c.mu.Unlock()
		return prior, SourceMemory
	}
	c.mem[hash] = &res
	c.mu.Unlock()
	return &res, SourceDisk
}

// put stores a result in memory and, when configured, on disk via an
// atomic rename so concurrent writers and readers never see a torn
// file.
func (c *resultCache) put(r *Result) error {
	c.mu.Lock()
	c.mem[r.Hash] = r
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("sweep: cache dir: %w", err)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("sweep: encode result: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "."+r.Hash+".tmp*")
	if err != nil {
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(r.Hash)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	return nil
}
