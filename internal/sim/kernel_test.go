package sim

import (
	"testing"
	"testing/quick"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", k.Pending())
	}
}

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []Time
	for _, at := range []Time{30, 10, 20, 5, 25} {
		at := at
		k.At(at, func() { order = append(order, at) })
	}
	k.Run()
	want := []Time{5, 10, 20, 25, 30}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %v, want %v", i, order[i], want[i])
		}
	}
	if k.Now() != 30 {
		t.Fatalf("final Now() = %v, want 30", k.Now())
	}
}

func TestKernelSimultaneousEventsFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(100, func() { order = append(order, i) })
	}
	k.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("simultaneous events reordered: order[%d] = %d", i, got)
		}
	}
}

func TestKernelAfterIsRelative(t *testing.T) {
	k := NewKernel()
	var hit Time = -1
	k.At(50, func() {
		k.After(25, func() { hit = k.Now() })
	})
	k.Run()
	if hit != 75 {
		t.Fatalf("After fired at %v, want 75", hit)
	}
}

func TestKernelSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(50, func() {})
	})
	k.Run()
}

func TestKernelNilEventPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("nil event did not panic")
		}
	}()
	k.At(1, nil)
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	var fired int
	k.At(10, func() { fired++; k.Stop() })
	k.At(20, func() { fired++ })
	k.Run()
	if fired != 1 {
		t.Fatalf("fired = %d after Stop, want 1", fired)
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d after Stop, want 1", k.Pending())
	}
	// Run again resumes from the calendar.
	k.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after resume, want 2", fired)
	}
}

func TestKernelFiredCount(t *testing.T) {
	k := NewKernel()
	for i := Time(1); i <= 7; i++ {
		k.At(i, func() {})
	}
	k.Run()
	if k.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", k.Fired())
	}
}

func TestKernelCascadedScheduling(t *testing.T) {
	// Events that schedule further events must interleave correctly
	// with pre-existing calendar entries.
	k := NewKernel()
	var order []string
	k.At(10, func() {
		order = append(order, "a10")
		k.At(15, func() { order = append(order, "a15") })
	})
	k.At(12, func() { order = append(order, "b12") })
	k.At(20, func() { order = append(order, "b20") })
	k.Run()
	want := []string{"a10", "b12", "a15", "b20"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTimeNanoseconds(t *testing.T) {
	if got := (2 * Nanosecond).Nanoseconds(); got != 2 {
		t.Fatalf("2ns = %v ns, want 2", got)
	}
	if got := (500 * Picosecond).Nanoseconds(); got != 0.5 {
		t.Fatalf("500ps = %v ns, want 0.5", got)
	}
}

func TestTimeOrderInvariant(t *testing.T) {
	// Property: for any set of (bounded) event times, dispatch order is
	// non-decreasing in time.
	f := func(raw []uint16) bool {
		k := NewKernel()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			k.At(at, func() { fired = append(fired, at) })
		}
		k.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
