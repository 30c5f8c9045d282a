//go:build !race

// Peak-heap gate for a Look-heavy solve. Excluded under -race, whose runtime
// inflates the heap; CI runs this file in the non-race allocation-gates step.
package dftp

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"freezetag/internal/geom"
	"freezetag/internal/instance"
)

// peakHeapObjects runs f while sampling the runtime's live-and-unswept heap
// object bytes every millisecond, and returns the largest sample.
func peakHeapObjects(f func()) uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	var peak uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, read())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	f()
	close(stop)
	wg.Wait()
	return max(peak, read())
}

// TestPeakHeap_AWaveDisk solves AWave on disk n=500, whose exploration takes
// hundreds of thousands of Looks. Snapshot memory must follow one Look's
// sightings, not the run's total; a run-lifetime snapshot store peaks near
// 760 MB here.
func TestPeakHeap_AWaveDisk(t *testing.T) {
	inst, err := instance.Family("disk", 500, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	tup := TupleFor(inst)
	runtime.GC()
	var solveErr error
	peak := peakHeapObjects(func() {
		_, _, solveErr = SolveIn(context.Background(), geom.L2, AWave{}, inst, tup, 0, nil)
	})
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	const limit = 128 << 20
	if peak > limit {
		t.Fatalf("AWave disk n=500 peak heap objects %.1f MB, limit %d MB", float64(peak)/(1<<20), limit>>20)
	}
	t.Logf("AWave disk n=500 peak heap objects %.1f MB", float64(peak)/(1<<20))
}
