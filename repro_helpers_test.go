package repro

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/trace"
	"repro/internal/workload"
)

// writeTestTrace materializes a small MP3D/8 workload to path.
func writeTestTrace(t *testing.T, path string) {
	t.Helper()
	gen := workload.NewGenerator(workload.Config{
		Profile:        workload.MustProfile("MP3D", 8),
		DataRefsPerCPU: 800,
		Seed:           3,
	})
	tr := workload.Materialize("MP3D", gen)
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
}

// writeWideTrace writes a trace of cpus processors, more than any
// workload profile has: each loads and then stores one shared block, so
// every node joins that block's sharers.
func writeWideTrace(t *testing.T, path string, cpus int) {
	t.Helper()
	const block = 0x2000_0000_0000
	tr := &trace.Trace{Name: "wide", Streams: make([][]trace.Ref, cpus)}
	for cpu := range tr.Streams {
		tr.Streams[cpu] = []trace.Ref{
			{CPU: int32(cpu), Op: coherence.Load, Shared: true, Addr: block},
			{CPU: int32(cpu), Op: coherence.Ifetch, Addr: 0x1000},
			{CPU: int32(cpu), Op: coherence.Store, Shared: true, Addr: block},
		}
	}
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
}
