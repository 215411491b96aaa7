package sim

import "testing"

// These tests pin the Stop/Run reuse contract: Stop only affects the
// run in progress, and Run clears the stop flag on entry and on
// return, so a stopped kernel can always be reused.

func TestKernelStopThenRunReuse(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, at := range []Time{10, 20, 30} {
		at := at
		k.At(at, func() { fired = append(fired, at) })
	}
	k.At(15, func() { k.Stop() })
	if got := k.Run(); got != 15 {
		t.Fatalf("Run() stopped at %v, want 15", got)
	}
	if len(fired) != 1 {
		t.Fatalf("fired %d events before Stop, want 1", len(fired))
	}
	// The stop flag must not leak into the next run: a plain Run resumes
	// from the calendar and drains it.
	if got := k.Run(); got != 30 {
		t.Fatalf("resumed Run() ended at %v, want 30", got)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events after resume, want 3", len(fired))
	}
	// A stray Stop outside any run is a no-op; the following Run still
	// dispatches normally.
	k.Stop()
	k.At(40, func() { fired = append(fired, 40) })
	k.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d events after stray Stop, want 4", len(fired))
	}
}

func TestKernelCanceledOverflowMinThenReschedule(t *testing.T) {
	// A run that discards a canceled far-future event jumps the wheel
	// base past the clock and ends without dispatching anything. Events
	// scheduled afterwards land behind the base and must still fire in
	// (time, seq) order.
	k := NewKernel()
	far := Time(3*wheelLen) * bucketWidth
	h := k.Schedule(far, handlerFunc(func(Time) { t.Fatal("canceled event fired") }))
	if !k.Cancel(h) {
		t.Fatal("Cancel of a pending event failed")
	}
	if got := k.Run(); got != 0 {
		t.Fatalf("Run() over a canceled calendar left clock at %v, want 0", got)
	}
	var fired []Time
	for _, at := range []Time{30, 10, 20, far + 5} {
		at := at
		k.At(at, func() { fired = append(fired, at) })
	}
	k.Run()
	want := []Time{10, 20, 30, far + 5}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestReleasedCalendarMatchesReferenceHeap: a kernel built after
// another one's Release (normally on its slab, free list, wheel and
// overflow heap, all grown by the earlier run) dispatches exactly as
// the reference heap, and the released kernel keeps its counters.
func TestReleasedCalendarMatchesReferenceHeap(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		prev := NewKernel()
		driveRandomWorkload(realCal{prev}, seed+100, func() { prev.Run() })
		fired, slab, now := prev.Fired(), prev.SlabSize(), prev.Now()
		prev.Release()
		if prev.Fired() != fired || prev.SlabSize() != slab || prev.Now() != now {
			t.Fatalf("released kernel reads fired %d slab %d now %v, want %d %d %v",
				prev.Fired(), prev.SlabSize(), prev.Now(), fired, slab, now)
		}

		ref := &refKernel{}
		refLog := driveRandomWorkload(refCal{ref}, seed, ref.run)
		k := NewKernel()
		realLog := driveRandomWorkload(realCal{k}, seed, func() { k.Run() })
		compareLogs(t, "recycled calendar", realLog, refLog)
	}
}

func TestReleaseWithPendingEventsPanics(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Release with a pending event did not panic")
		}
	}()
	k.Release()
}
