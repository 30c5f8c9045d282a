package sim

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"freezetag/internal/arena"
	"freezetag/internal/geom"
)

// Process coroutines end synchronously: stop returns once the coroutine has
// unwound. So the goroutines backing them are gone the moment Run, RunCtx or
// Close returns, with no waiting; the cancellation tests in cancel_test.go
// check the same after a cancelled run.

func lifecycleConfig() Config {
	return Config{Source: geom.Origin, Sleepers: []geom.Point{geom.Pt(0.5, 0), geom.Pt(1, 0), geom.Pt(1.5, 0)}}
}

// wakeAll is a source program that walks to each sleeper in id order and
// wakes it with body.
func wakeAll(body func(*Proc)) func(*Proc) {
	return func(p *Proc) {
		for id := 1; id < p.Engine().NumRobots(); id++ {
			if err := p.MoveTo(p.Engine().Robot(id).InitPos()); err != nil {
				panic(err)
			}
			p.Wake(id, body)
		}
	}
}

// meet has the three woken robots wait and then release each other.
func meet(q *Proc) {
	q.Wait(1)
	q.Barrier("meet", 3)
}

// stall parks every woken robot on a barrier that can never fill.
func stall(q *Proc) { q.Barrier("never", 4) }

// goroutines snapshots the goroutine count and how many of those goroutines
// back process coroutines (created by iter.Pull, which in this package only
// the engine calls).
type goroutines struct{ all, procs int }

func countGoroutines() goroutines {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return goroutines{all: runtime.NumGoroutine(), procs: bytes.Count(buf, []byte("created by iter.Pull"))}
}

// checkGoroutines fails unless exactly procs process coroutines are alive
// beyond base and the total count has not grown past that. The total may
// read lower than base: the previous test's goroutine can still be exiting
// when base is taken, which the process count is immune to.
func checkGoroutines(t *testing.T, when string, base goroutines, procs int) {
	t.Helper()
	got := countGoroutines()
	if got.procs != base.procs+procs || got.all > base.all+procs {
		t.Fatalf("%s: %+v, want %d more process coroutines than %+v", when, got, procs, base)
	}
}

func TestLifecycleNormalRun(t *testing.T) {
	base := countGoroutines()
	e := NewEngine(lifecycleConfig())
	e.Spawn(SourceID, wakeAll(meet))
	res, err := e.Run()
	if err != nil || !res.AllAwake {
		t.Fatalf("run: %+v, %v", res, err)
	}
	checkGoroutines(t, "after Run", base, 0)
}

func TestLifecycleDeadlock(t *testing.T) {
	base := countGoroutines()
	e := NewEngine(lifecycleConfig())
	e.Spawn(SourceID, wakeAll(stall))
	if _, err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	checkGoroutines(t, "after ErrDeadlock", base, 0)
}

// A pooled engine keeps its finished process coroutines across Reset runs,
// so repeat runs of one shape hold the goroutine count steady; killed
// processes leave the pool and are replaced; Close ends the rest.
func TestLifecyclePooledResetAndClose(t *testing.T) {
	base := countGoroutines()
	a := arena.New("lifecycle")
	t.Cleanup(a.Close)
	run := func(body func(*Proc)) error {
		e := NewEngineIn(a, lifecycleConfig())
		e.Spawn(SourceID, wakeAll(body))
		_, err := e.Run()
		return err
	}
	if err := run(meet); err != nil {
		t.Fatal(err)
	}
	// Four processes ran (the source and three woken robots), and all four
	// stay suspended in the pool.
	checkGoroutines(t, "after the first pooled run", base, 4)
	for i := 0; i < 3; i++ {
		if err := run(meet); err != nil {
			t.Fatal(err)
		}
		checkGoroutines(t, "after a repeat pooled run", base, 4)
	}
	if err := run(stall); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	checkGoroutines(t, "after a pooled deadlock", base, 1)
	if err := run(meet); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, "after refilling the pool", base, 4)
	a.Close()
	checkGoroutines(t, "after Close", base, 0)
}

// A panic in a process body other than the engine's own unwind is an
// algorithm bug: it surfaces on the goroutine that called Run, where it can
// be recovered, and takes no stray goroutine down with it.
func TestProcPanicReachesRunCaller(t *testing.T) {
	base := countGoroutines()
	e := NewEngine(Config{Source: geom.Origin})
	e.Spawn(SourceID, func(p *Proc) {
		p.Wait(1)
		panic("algorithm bug")
	})
	rec := func() (rec any) {
		defer func() { rec = recover() }()
		_, _ = e.Run()
		return nil
	}()
	if rec != "algorithm bug" {
		t.Fatalf("recovered %v, want the process's panic value", rec)
	}
	checkGoroutines(t, "after the panic", base, 0)
}
