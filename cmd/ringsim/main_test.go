package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/trace"
)

func TestRunSimulatesOneMachine(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "MP3D", "-cpus", "8", "-cycle", "10", "-refs", "500"},
		&out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{
		"configuration: snoop-ring, MP3D/8 CPUs, 10.0 ns processor cycle",
		"processor utilization",
		"avg miss latency",
		"execution time",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, bench := range []string{"MP3D", "WATER", "CHOLESKY", "FFT"} {
		if !strings.Contains(out.String(), bench) {
			t.Errorf("-list output missing %s:\n%s", bench, out.String())
		}
	}
}

func TestRunTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "MP3D", "-cpus", "8", "-refs", "800",
		"-trace-out", path, "-trace-sample", "16"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "trace written to "+path) {
		t.Errorf("output missing trace summary:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "spans") {
		t.Errorf("output missing per-class span summary:\n%s", out.String())
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}
}

func TestRunTraceSampleRequiresTraceOut(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-trace-sample", "8"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-trace-out") {
		t.Errorf("stderr: %s", errb.String())
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	// A directory record tracks at most 64 nodes.
	wide := filepath.Join(t.TempDir(), "w65.trc.gz")
	tr := &trace.Trace{Name: "wide", Streams: make([][]trace.Ref, 65)}
	for cpu := range tr.Streams {
		tr.Streams[cpu] = []trace.Ref{{CPU: int32(cpu), Op: coherence.Load, Shared: true, Addr: 0x2000_0000_0000}}
	}
	if err := trace.WriteFile(wide, tr); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-bench", "NOSUCH"},
		{"-ringbits", "7"},
		{"-cpus", "8", "-refs", "-600"},
		{"-cpus", "8", "-refs", "-5000"},
		{"-protocol", "directory-ring", "-trace", wide},
		{"-protocol", "sci-ring", "-trace", wide},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 1 {
			t.Fatalf("%v: exit %d, want 1", args, code)
		}
		if !strings.Contains(errb.String(), "ringsim:") {
			t.Errorf("%v: stderr: %s", args, errb.String())
		}
	}
}

func TestRunVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-version"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "ringsim ") {
		t.Errorf("stdout: %q", out.String())
	}
}

func TestRunRejectsBadLogLevel(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-loglevel", "loud"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "log level") {
		t.Errorf("stderr: %s", errb.String())
	}
}
