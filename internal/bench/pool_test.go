package bench

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestSweepAssemblesInIndexOrder(t *testing.T) {
	const points = 40
	out := make([]int, points)
	err := sweep(points, func(i int) error {
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d holds %d, want %d", i, v, i*i)
		}
	}
}

func TestSweepReturnsFirstErrorByIndex(t *testing.T) {
	boom := errors.New("boom")
	err := sweep(10, func(i int) error {
		if i == 3 {
			return fmt.Errorf("point %d: %w", i, boom)
		}
		if i == 7 {
			return errors.New("later failure")
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the index-3 error", err)
	}
	// Every point still ran: the pool does not cancel on error.
	var ran atomic.Int32
	_ = sweep(10, func(i int) error { ran.Add(1); return errors.New("x") })
	if ran.Load() != 10 {
		t.Errorf("%d points ran, want 10", ran.Load())
	}
}

// TestE2ParallelIsDeterministic pins the byte-identical-tables contract:
// the pooled sweep must assemble exactly the rows a sequential run would.
func TestE2ParallelIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full E2 points twice")
	}
	p := &E2Params{Ns: []int{2, 4, 6}, Seeds: 2}
	a, err := E2RoundsVsN(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := E2RoundsVsN(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Errorf("E2 rows differ across runs:\n%v\nvs\n%v", a.Rows, b.Rows)
	}
	if len(a.Stats) != len(a.Rows) {
		t.Fatalf("%d stats for %d rows", len(a.Stats), len(a.Rows))
	}
	for i, st := range a.Stats {
		if st == nil || st.WallClock <= 0 || st.SolverCalls <= 0 {
			t.Errorf("row %d: missing timing %+v", i, st)
		}
	}
	rows := JSONRows(a)
	for i, r := range rows {
		if r.WallMS <= 0 || r.SolverCalls <= 0 {
			t.Errorf("JSON row %d lacks timing fields: %+v", i, r)
		}
	}
}
