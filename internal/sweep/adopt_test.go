package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func adoptTestEngines(t *testing.T, dir string) (*Engine, *Engine) {
	t.Helper()
	exec := func(j Job) (*core.Metrics, error) {
		m := &core.Metrics{DataRefs: uint64(j.CPUs * j.DataRefsPerCPU)}
		m.MissLatency.Observe(600)
		return m, nil
	}
	src := New(Options{Workers: 1, Executors: map[string]Executor{"": exec}})
	dst := New(Options{Workers: 1, CacheDir: dir, Executors: map[string]Executor{"": exec}})
	return src, dst
}

// TestAdopt: a result computed elsewhere enters the local tiers after
// integrity checks, and later lookups serve the identical bytes.
func TestAdopt(t *testing.T) {
	src, dst := adoptTestEngines(t, t.TempDir())
	res, err := src.RunOne(Job{CPUs: 2, DataRefsPerCPU: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := dst.Lookup(res.Hash); ok {
		t.Fatal("destination engine already holds the result")
	}
	if err := dst.Adopt(res); err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	got, srcTag, ok := dst.Lookup(res.Hash)
	if !ok {
		t.Fatal("adopted result not found")
	}
	if srcTag != SourceMemory {
		t.Errorf("lookup source = %v, want memory", srcTag)
	}
	if !bytes.Equal(got.CanonicalMetrics(), res.CanonicalMetrics()) {
		t.Error("adopted bytes differ from the original")
	}
}

// TestAdoptRejectsTamperedResults: the adoption boundary is an
// integrity gate — malformed hashes and results whose job content no
// longer matches their claimed hash never enter a cache.
func TestAdoptRejectsTamperedResults(t *testing.T) {
	src, dst := adoptTestEngines(t, "")
	res, err := src.RunOne(Job{CPUs: 2, DataRefsPerCPU: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	if err := dst.Adopt(nil); err == nil {
		t.Error("nil result adopted")
	}

	bad := &Result{Job: res.Job, Hash: strings.Repeat("zz", 32), Snapshot: res.Snapshot}
	if err := dst.Adopt(bad); err == nil {
		t.Error("malformed hash adopted")
	}

	forged := &Result{Job: res.Job, Hash: res.Hash, Snapshot: res.Snapshot}
	forged.Job.Seed++ // content no longer hashes to forged.Hash
	if err := dst.Adopt(forged); err == nil {
		t.Error("forged job content adopted")
	}

	if _, _, ok := dst.Lookup(res.Hash); ok {
		t.Error("a rejected adoption still populated the cache")
	}
}

// TestDiskArtifactMustHashToItsJob: the disk tier applies Adopt's
// integrity gate too. An artifact whose job content does not hash to
// its file name is a miss and is deleted, even though its stored hash
// label agrees: one whose job was edited after it was written, and one
// written while Job still carried the retired ring_segments field,
// whose job now decodes as a classic job that hashes elsewhere. A clean
// artifact next to them still hits disk.
func TestDiskArtifactMustHashToItsJob(t *testing.T) {
	dir := t.TempDir()
	_, writer := adoptTestEngines(t, dir)
	edited, err := writer.RunOne(Job{CPUs: 2, DataRefsPerCPU: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := writer.RunOne(Job{CPUs: 2, DataRefsPerCPU: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := func(hash string) string { return filepath.Join(dir, hash+".json") }
	// rewrite stores the artifact read from file from under hash, with
	// its job replaced and its hash label set to match the new name.
	rewrite := func(from, hash string, job json.RawMessage) {
		t.Helper()
		raw, err := os.ReadFile(path(from))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		doc["job"] = job
		doc["hash"], _ = json.Marshal(hash)
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path(hash), out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	forged := edited.Job
	forged.Seed = 999
	rewrite(edited.Hash, edited.Hash, forged.Canonical())
	// The segmented-ring job's hash as computed while Job had the field.
	const segHash = "ef39bbc43cbe84d3df6734e4f432192ae24f8f35f10733835d826ade8983ccd9"
	rewrite(clean.Hash, segHash, json.RawMessage(`{"protocol":"directory-ring","benchmark":"MP3D","cpus":16,`+
		`"ring_segments":8,"data_refs_per_cpu":100,"seed":3}`))

	fresh := New(Options{Workers: 1, CacheDir: dir})
	for name, hash := range map[string]string{"edited job": edited.Hash, "ring_segments job": segHash} {
		if res, src, ok := fresh.Lookup(hash); ok {
			t.Errorf("%s: served from %v as %s", name, src, res.Job)
		}
		if _, err := os.Stat(path(hash)); !os.IsNotExist(err) {
			t.Errorf("%s: artifact not deleted (stat: %v)", name, err)
		}
	}
	got, src, ok := fresh.Lookup(clean.Hash)
	if !ok || src != SourceDisk {
		t.Fatalf("clean artifact: ok=%v source=%v, want a disk hit", ok, src)
	}
	if !bytes.Equal(got.CanonicalMetrics(), clean.CanonicalMetrics()) {
		t.Error("clean artifact's metrics changed on the disk round trip")
	}
}
