//go:build !race

// Memory gate for the Look path: a snapshot lives in its process's reusable
// buffer, so a run's allocation must not grow with its number of Looks.
// Excluded under -race, whose runtime instruments allocations; CI runs this
// file in the non-race allocation-gates step.
package sim

import (
	"runtime"
	"testing"

	"freezetag/internal/geom"
)

// lookRunAlloc returns the bytes allocated by one run in which the source
// takes looks snapshots of a fixed cluster of sleepers without moving.
func lookRunAlloc(t *testing.T, sleepers []geom.Point, looks int) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := NewEngine(Config{Source: geom.Origin, Sleepers: sleepers})
	e.Spawn(SourceID, func(p *Proc) {
		for i := 0; i < looks; i++ {
			if got := len(p.Look().Asleep); got != len(sleepers) {
				t.Errorf("look %d saw %d sleepers, want %d", i, got, len(sleepers))
				return
			}
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLookMemoryIndependentOfLookCount runs the same cluster with 100 and
// with 10 000 Looks. A run-lifetime snapshot store would add
// looks × sightings × 24 B (≈ 12 MB here); a per-process buffer adds nothing.
func TestLookMemoryIndependentOfLookCount(t *testing.T) {
	sleepers := make([]geom.Point, 50)
	for i := range sleepers {
		sleepers[i] = geom.Pt(float64(i%10)*0.05, float64(i/10)*0.05)
	}
	lookRunAlloc(t, sleepers, 100) // warm the runtime before measuring
	few := lookRunAlloc(t, sleepers, 100)
	many := lookRunAlloc(t, sleepers, 10000)
	const limit = 64 << 10
	if many > few && many-few > limit {
		t.Fatalf("10000 Looks allocate %d B more than 100 Looks, limit %d B", many-few, limit)
	}
	t.Logf("100 Looks: %d B, 10000 Looks: %d B", few, many)
}
