// Package sweep is the experiment-orchestration engine: it fans
// simulation jobs out over a worker pool, memoizes their results in an
// in-memory and optional on-disk content-addressed cache, and reports
// progress and throughput while a sweep runs.
//
// Every curve in the paper's evaluation is a sweep — protocol ×
// benchmark × CPU count × processor cycle time — and every point is an
// independent, deterministic simulation. The engine exploits exactly
// that: a Job is a pure description of one simulation point, its
// canonical content hash identifies the result, and its RNG seed is
// derived from that hash, so results are bit-identical regardless of
// worker count, completion order, or whether a point was computed
// fresh or replayed from the cache.
package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Job describes one simulation point. The zero value of most fields
// means "model default" (paper configuration); Normalize fills the
// axes that define a point's identity. Jobs are compared, hashed and
// cached by value: two jobs with the same normalized content are the
// same experiment.
type Job struct {
	// Kind selects the executor. Empty means the default simulator
	// executor (a standalone machine over the benchmark's Table 2
	// profile); other kinds are registered via Options.Executors.
	Kind string `json:"kind,omitempty"`

	// Protocol is the machine: snoop-ring, directory-ring, sci-ring,
	// snoop-bus or hier-ring. Default snoop-ring.
	Protocol string `json:"protocol"`
	// Benchmark is a Table 2 workload name. Default MP3D.
	Benchmark string `json:"benchmark"`
	// CPUs is the system size. Default 16.
	CPUs int `json:"cpus"`
	// ProcCyclePS is the processor cycle time in picoseconds.
	// Zero means the calibration point (20 ns = 50 MIPS).
	ProcCyclePS int64 `json:"proc_cycle_ps,omitempty"`

	// Interconnect geometry. Zero values are the paper's defaults
	// (500 MHz 32-bit ring, 50 MHz 64-bit bus, 16-byte blocks).
	RingClockPS          int64 `json:"ring_clock_ps,omitempty"`
	RingWidthBits        int   `json:"ring_width_bits,omitempty"`
	RingBlockBytes       int   `json:"ring_block_bytes,omitempty"`
	RingProbePairs       int   `json:"ring_probe_pairs,omitempty"`
	RingNoStarvationRule bool  `json:"ring_no_starvation_rule,omitempty"`
	BusClockPS           int64 `json:"bus_clock_ps,omitempty"`

	// Cache geometry (zero: 128 KB / 16 B) and home-placement page.
	CacheBytes      int `json:"cache_bytes,omitempty"`
	CacheBlockBytes int `json:"cache_block_bytes,omitempty"`
	PageBytes       int `json:"page_bytes,omitempty"`

	// Clusters configures the hierarchical ring.
	Clusters int `json:"clusters,omitempty"`

	// NonBlockingStores enables the weak-ordering write buffer;
	// WriteBufferDepth bounds it (zero: 8).
	NonBlockingStores bool `json:"non_blocking_stores,omitempty"`
	WriteBufferDepth  int  `json:"write_buffer_depth,omitempty"`

	// DataRefsPerCPU is the measured stream length per processor
	// (default 2000); WarmupDataRefs the excluded cold-start window
	// (zero: executor default).
	DataRefsPerCPU int `json:"data_refs_per_cpu"`
	WarmupDataRefs int `json:"warmup_data_refs,omitempty"`

	// CalibrationIters keys calibrated (experiments-runner) jobs: the
	// burst-fit iteration bound that shaped their workload.
	CalibrationIters int `json:"calibration_iters,omitempty"`

	// Seed is the base random seed. The executor's effective RNG seed
	// is derived from the job hash (which covers Seed), so distinct
	// jobs never share an RNG stream.
	Seed uint64 `json:"seed"`

	// Tenant is serving-layer provenance: which tenant submitted the
	// job. It is deliberately excluded from serialization — the same
	// simulation point submitted by two tenants is one experiment with
	// one cache entry — so it never reaches the content hash, the disk
	// cache, or the cluster wire body (the cluster carries it in a
	// header instead).
	Tenant string `json:"-"`

	// TraceParent is serving-layer provenance like Tenant: the
	// request-trace span context ("traceID:spanID", reqtrace wire
	// form) under which this job is being executed. Excluded from
	// serialization for the same reason — tracing must never change a
	// job's identity, its cache entry, or its result bytes — so it
	// never reaches the content hash, the disk cache, or the cluster
	// wire body (the cluster carries it in the X-Ringsim-Trace header).
	TraceParent string `json:"-"`
}

// Normalize fills the identity-defining defaults so that two spellings
// of the same experiment hash identically.
func (j Job) Normalize() Job {
	if j.Protocol == "" {
		j.Protocol = "snoop-ring"
	}
	if j.Benchmark == "" {
		j.Benchmark = "MP3D"
	}
	if j.CPUs == 0 {
		j.CPUs = 16
	}
	if j.DataRefsPerCPU == 0 {
		j.DataRefsPerCPU = 2000
	}
	if j.Seed == 0 {
		j.Seed = 1
	}
	return j
}

// Canonical returns the canonical serialized form of the job: the JSON
// encoding of the normalized value. encoding/json writes struct fields
// in declaration order with deterministic number formatting, so the
// bytes are stable across processes and Go versions.
func (j Job) Canonical() []byte {
	b, err := json.Marshal(j.Normalize())
	if err != nil {
		// Job is a flat value type; Marshal cannot fail.
		panic(fmt.Sprintf("sweep: canonicalize job: %v", err))
	}
	return b
}

// Hash returns the job's content hash (SHA-256 of Canonical, hex),
// the key under which its result is cached.
func (j Job) Hash() string {
	sum := sha256.Sum256(j.Canonical())
	return hex.EncodeToString(sum[:])
}

// ValidHash reports whether s is a well-formed job content hash as
// produced by Job.Hash: exactly 64 lowercase hex characters. The
// cache and the serving layer reject anything else before it reaches
// the filesystem, so an externally supplied hash can never form a
// path outside the cache directory.
func ValidHash(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// RNGSeed derives the job's effective simulation seed from its content
// hash. Deriving rather than sharing a stream is what makes sweep
// results independent of worker count and completion order; covering
// the Seed field means the base seed still selects a different stream
// per job.
func (j Job) RNGSeed() uint64 {
	sum := sha256.Sum256(j.Canonical())
	s := binary.BigEndian.Uint64(sum[:8])
	if s == 0 {
		s = 1 // the simulators treat 0 as "use default seed"
	}
	return s
}

// String renders a short human-readable label for progress output.
func (j Job) String() string {
	j = j.Normalize()
	cyc := float64(j.ProcCyclePS) / 1000
	if cyc == 0 {
		cyc = 20
	}
	return fmt.Sprintf("%s/%s/%dcpu@%.1fns", j.Protocol, j.Benchmark, j.CPUs, cyc)
}
