package sweep

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ProtocolFromString maps a protocol name to the core enum.
func ProtocolFromString(name string) (core.Protocol, error) {
	switch name {
	case "snoop-ring":
		return core.SnoopRing, nil
	case "directory-ring":
		return core.DirectoryRing, nil
	case "sci-ring":
		return core.SCIRing, nil
	case "snoop-bus":
		return core.SnoopBus, nil
	case "hier-ring":
		return core.HierRing, nil
	}
	return 0, fmt.Errorf("unknown protocol %q", name)
}

// SystemConfig translates the job into the core system configuration
// it describes. The translation is exact and invertible over the
// fields Job models; callers embedding richer configurations must
// bypass the engine.
func (j Job) SystemConfig() (core.Config, error) {
	j = j.Normalize()
	proto, err := ProtocolFromString(j.Protocol)
	if err != nil {
		return core.Config{}, err
	}
	if j.DataRefsPerCPU < 0 {
		return core.Config{}, fmt.Errorf("negative data_refs_per_cpu %d", j.DataRefsPerCPU)
	}
	cfg := core.Config{
		Protocol:  proto,
		ProcCycle: sim.Time(j.ProcCyclePS),
		Ring: ring.Config{
			ClockPS:                sim.Time(j.RingClockPS),
			WidthBits:              j.RingWidthBits,
			BlockBytes:             j.RingBlockBytes,
			ProbePairsPerBlockSlot: j.RingProbePairs,
			DisableStarvationRule:  j.RingNoStarvationRule,
		},
		Bus:               bus.Config{ClockPS: sim.Time(j.BusClockPS)},
		Cache:             cache.Config{SizeBytes: j.CacheBytes, BlockBytes: j.CacheBlockBytes},
		PageBytes:         j.PageBytes,
		Seed:              j.Seed,
		WarmupDataRefs:    j.WarmupDataRefs,
		Clusters:          j.Clusters,
		NonBlockingStores: j.NonBlockingStores,
		WriteBufferDepth:  j.WriteBufferDepth,
	}
	// The geometry (cache, page, ring, bus, clusters) and the stream
	// lengths are checked by the components' own rules here, politely:
	// the constructors treat a malformed geometry as programmer error and
	// panic, but a Job arrives over the wire and must come back as a job
	// error instead.
	if err := cfg.Validate(j.CPUs); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// standaloneWarmup is the cold-start window the default executor
// excludes from measurement, matching the repro facade.
const standaloneWarmup = 600

// standaloneExecutor builds the default executor with an engine-wide
// tracing config. Tracing is an execution detail, never part of a
// job's identity: the simulated results are bit-identical with it on or
// off, so traced and untraced runs of the same job share one cache
// entry.
func standaloneExecutor(trace obs.Config) Executor {
	return func(j Job) (*core.Metrics, error) { return runStandalone(j, trace) }
}

// runStandalone is the default executor: one complete machine over the
// benchmark's Table 2 synthetic workload, the same machine repro.Run
// builds. The workload and home-placement RNG seed is derived from the
// job's content hash, so every job owns an independent, reproducible
// random stream no matter which worker runs it.
func runStandalone(j Job, trace obs.Config) (*core.Metrics, error) {
	j = j.Normalize()
	prof, ok := workload.ProfileFor(j.Benchmark, j.CPUs)
	if !ok {
		return nil, fmt.Errorf("no workload profile %s/%d", j.Benchmark, j.CPUs)
	}
	cfg, err := j.SystemConfig()
	if err != nil {
		return nil, err
	}
	seed := j.RNGSeed()
	cfg.Seed = seed
	cfg.Trace = trace
	if cfg.WarmupDataRefs == 0 {
		cfg.WarmupDataRefs = standaloneWarmup
	}
	gen := workload.NewGenerator(workload.Config{
		Profile:        prof,
		DataRefsPerCPU: j.DataRefsPerCPU + cfg.WarmupDataRefs,
		Seed:           seed,
	})
	return core.NewSystem(cfg, gen).Run(), nil
}
