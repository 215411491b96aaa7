package coherence

import (
	"testing"

	"repro/internal/sim"
)

// testTxn records the steps it resumes and finishes on stepDone.
type testTxn struct {
	Record
	resumed []Step
}

const (
	stepA Step = iota
	stepDone
)

func (t *testTxn) Resume(step Step, _ int, at sim.Time) {
	t.resumed = append(t.resumed, step)
	if step == stepDone {
		t.Finish(at, Result{Txn: ReadMissClean})
	}
}

func getTxn(p *Pool) *testTxn {
	t, _ := p.Get().(*testTxn)
	if t == nil {
		t = &testTxn{}
		t.Bind(t, p)
	}
	return t
}

func TestRecordReleasedAfterLastArrival(t *testing.T) {
	var pool Pool
	tx := getTxn(&pool)
	var got []Result
	tx.Open(func(_ sim.Time, res Result) { got = append(got, res) })
	late := tx.Await(stepA)
	tx.Await(stepDone).OnEvent(10)
	if len(got) != 1 || got[0].Txn != ReadMissClean {
		t.Fatalf("completions = %v, want one read-miss-clean", got)
	}
	if len(pool.free) != 0 {
		t.Fatal("record released while an arrival was still outstanding")
	}
	late.OnEvent(20)
	if len(pool.free) != 1 {
		t.Fatal("last late arrival did not release the record")
	}
	if tx.resumed[1] != stepA {
		t.Fatalf("late arrival did not resume its step: %v", tx.resumed)
	}
	if again := getTxn(&pool); again != tx {
		t.Fatal("pool did not recycle the released record")
	}
}

func TestRecordReleasedAtFinish(t *testing.T) {
	var pool Pool
	tx := getTxn(&pool)
	tx.Open(nil)
	tx.Await(stepDone).OnEvent(5)
	if len(pool.free) != 1 {
		t.Fatal("Finish with nothing outstanding did not release the record")
	}
	// A write-back closes before its message lands.
	tx = getTxn(&pool)
	tx.Open(nil)
	land := tx.Await(stepA)
	tx.Close()
	if len(pool.free) != 0 {
		t.Fatal("Close released a record with an arrival outstanding")
	}
	land.OnVisit(3, 6) // visits are not arrivals
	if len(pool.free) != 0 {
		t.Fatal("a visit released the record")
	}
	land.OnEvent(7)
	if len(pool.free) != 1 {
		t.Fatal("arrival after Close did not release the record")
	}
}

func TestTableRowsAreDense(t *testing.T) {
	tab := NewTable()
	a, b := tab.Index(0x40), tab.Index(0x1000_0000_0000)
	if a != 0 || b != 1 || tab.Index(0x40) != 0 || tab.Len() != 2 {
		t.Fatalf("indices %d, %d, len %d; want 0, 1, 2", a, b, tab.Len())
	}
	tab.Row(0x40).Owner = 3
	if tab.At(a).Owner != 3 || tab.At(b).Owner != -1 || tab.At(b).Dirty {
		t.Fatal("rows not independent or fresh row not zero-valued")
	}
}
