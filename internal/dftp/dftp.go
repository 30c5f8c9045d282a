// Package dftp implements the paper's three distributed Freeze Tag
// algorithms on the simulator:
//
//   - ASeparator (§3, Theorem 1): divide-and-conquer with geometric
//     separators; makespan O(ρ + ℓ²log(ρ/ℓ)), unconstrained energy.
//   - AGrid (§8.1, Theorem 4): BFS wave over a grid of width-2ℓ squares;
//     energy O(ℓ²), makespan O(ℓ·ξℓ).
//   - AWave (§8.2, Theorem 5): the AGrid wave with width-8ℓ²log₂ℓ squares,
//     each woken by ASeparator; energy O(ℓ²logℓ), makespan
//     O(ξℓ + ℓ²log(ξℓ/ℓ)).
//
// Implementation deviations from the paper, documented in DESIGN.md §6:
// round schedules use 9 slot-widths per round instead of 8 (one slot of
// explicit slack for gathering and late wake-ups), and the slot-work
// constants t(·) are explicit calibrated upper bounds for this codebase's
// exploration and wake-tree constants. Neither changes any asymptotic bound.
package dftp

import (
	"context"
	"fmt"
	"math"
	"sort"

	"freezetag/internal/arena"
	"freezetag/internal/diskgraph"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/sim"
	"freezetag/internal/wakeup"
)

// Tuple is the (ℓ, ρ, n) input handed to the source robot (Definition 1).
type Tuple struct {
	Ell float64
	Rho float64
	N   int
}

// L returns the integer team-size parameter ⌈ℓ⌉ used for 4ℓ team targets.
func (t Tuple) L() int {
	l := int(math.Ceil(t.Ell))
	if l < 1 {
		l = 1
	}
	return l
}

// Admissible reports ℓ ≤ ρ ≤ nℓ with ℓ > 0.
func (t Tuple) Admissible() bool {
	return t.Ell > 0 && t.Rho >= t.Ell && t.Rho <= float64(t.N)*t.Ell
}

// TupleFor computes an admissible tuple from an instance's exact Euclidean
// parameters, rounding ℓ and ρ up to integers as the paper assumes.
func TupleFor(inst *instance.Instance) Tuple { return TupleForIn(nil, inst) }

// TupleForIn computes the admissible tuple under metric m (nil defaults to
// ℓ2): ℓ* and ρ* are metric-dependent, so the knowledge handed to the source
// must be measured in the metric the simulation runs in.
func TupleForIn(m geom.Metric, inst *instance.Instance) Tuple {
	return TupleFromParams(inst.ParamsIn(m))
}

// TupleFromParams rounds already-computed exact parameters into the
// admissible tuple. Callers that need the params for their own reporting
// use this to avoid a second O(n²) derivation.
func TupleFromParams(p diskgraph.Params) Tuple {
	ell := math.Ceil(p.Ell)
	if ell < 1 {
		ell = 1
	}
	rho := math.Ceil(p.Rho)
	if rho < ell {
		rho = ell
	}
	return Tuple{Ell: ell, Rho: rho, N: p.N}
}

// Report carries run diagnostics surfaced by the algorithms.
type Report struct {
	// Misses lists synchronization-deadline misses. A correct configuration
	// produces none; any entry means the calibrated slot constants were too
	// tight for the instance.
	Misses []string
	// Rounds is the highest round index (AGrid/AWave) or recursion depth
	// (ASeparator) reached.
	Rounds int
}

func (r *Report) miss(format string, args ...interface{}) {
	r.Misses = append(r.Misses, fmt.Sprintf(format, args...))
}

func (r *Report) sawRound(k int) {
	if k > r.Rounds {
		r.Rounds = k
	}
}

// Algorithm is one of the paper's dFTP algorithms.
type Algorithm interface {
	Name() string
	// Install spawns the source program on the engine. The returned Report
	// is filled in during the subsequent Engine.Run.
	Install(e *sim.Engine, tup Tuple) *Report
}

// Solve runs alg on inst with the given per-robot energy budget (≤ 0 for
// unconstrained) and returns the simulation result and report.
func Solve(alg Algorithm, inst *instance.Instance, tup Tuple, budget float64) (sim.Result, *Report, error) {
	return SolveTraced(alg, inst, tup, budget, nil)
}

// SolveTraced is Solve with an event-trace callback attached to the engine
// (nil for none). It is the facade used by callers that need the event
// stream — cmd/dftp-run and the solver service — without reaching into the
// engine themselves. Tracing never changes the result.
func SolveTraced(alg Algorithm, inst *instance.Instance, tup Tuple, budget float64, traceFn func(sim.Event)) (sim.Result, *Report, error) {
	return SolveCtx(context.Background(), alg, inst, tup, budget, traceFn)
}

// SolveCtx is SolveTraced with cooperative cancellation: cancelling ctx
// abandons the simulation at the next event dispatch and returns the partial
// result with an error wrapping sim.ErrCancelled and ctx.Err(). It is the
// entry point of the portfolio racing engine, which cancels losing racers
// once a winner is decided. A nil or background context behaves like Solve.
func SolveCtx(ctx context.Context, alg Algorithm, inst *instance.Instance, tup Tuple, budget float64, traceFn func(sim.Event)) (sim.Result, *Report, error) {
	return SolveIn(ctx, nil, alg, inst, tup, budget, traceFn)
}

// SolveIn is the root of the Solve family: it runs alg on inst with all
// distances — travel times, energy, the radius-1 Look — measured under
// metric m (nil defaults to ℓ2, making every other Solve* a thin wrapper).
// The tuple should be measured in the same metric (see TupleForIn). A
// heterogeneous instance hands its per-robot profiles to the engine, so
// travel times divide by speed and private capacities cap energy; budget
// stays the uniform fallback for robots without a capacity of their own.
func SolveIn(ctx context.Context, m geom.Metric, alg Algorithm, inst *instance.Instance, tup Tuple, budget float64, traceFn func(sim.Event)) (sim.Result, *Report, error) {
	return SolveArena(ctx, nil, m, alg, inst, tup, budget, traceFn)
}

// SolveArena is SolveIn running on the worker arena ar: the simulation
// engine (robot block, spatial indexes, process-coroutine pool, algorithm
// scratch) is checked out of the arena and reset against inst instead of
// being rebuilt, so a steady stream of same-shape jobs simulates without
// allocating. A nil arena degrades to a fresh one-shot engine. The result
// and report are bit-identical to SolveIn's either way, but everything they
// reference is invalidated by the arena's next job — callers marshal within
// the job, which the serving tier does.
func SolveArena(ctx context.Context, ar *arena.Arena, m geom.Metric, alg Algorithm, inst *instance.Instance, tup Tuple, budget float64, traceFn func(sim.Event)) (sim.Result, *Report, error) {
	e := sim.NewEngineIn(ar, sim.Config{
		Source:   inst.Source,
		Sleepers: inst.Points,
		Budget:   budget,
		Profiles: simProfiles(inst),
		Metric:   m,
		Trace:    traceFn,
	})
	rep := alg.Install(e, tup)
	res, err := e.RunCtx(ctx)
	return res, rep, err
}

// simProfiles converts an instance's profiles to the simulator's mirror
// type (nil for homogeneous instances).
func simProfiles(inst *instance.Instance) []sim.Profile {
	if len(inst.Profiles) == 0 {
		return nil
	}
	ps := make([]sim.Profile, len(inst.Profiles))
	for i, p := range inst.Profiles {
		ps[i] = sim.Profile{Speed: p.Speed, Capacity: p.Capacity}
	}
	return ps
}

// wakeTarget builds the wakeup.Target of robot id at pos, attaching the
// robot's capability profile when the engine is heterogeneous. Profile-free
// engines keep the zero-valued targets that reproduce the pre-profile wake
// trees exactly (see wakeup.BuildTreeIn).
func wakeTarget(e *sim.Engine, id int, pos geom.Point) wakeup.Target {
	t := wakeup.Target{ID: id, Pos: pos}
	if e.Heterogeneous() {
		r := e.Robot(id)
		t.Speed = r.Speed()
		if b := r.Budget(); !math.IsInf(b, 1) {
			t.Capacity = b - r.Energy()
		}
	}
	return t
}

// asleepNow filters a discovery map down to robots still asleep, which under
// region exclusivity equals the caller's logical knowledge.
func asleepNow(e *sim.Engine, known map[int]geom.Point) map[int]geom.Point {
	out := make(map[int]geom.Point, len(known))
	for id, pos := range known {
		if e.Robot(id).State() == sim.Asleep {
			out[id] = pos
		}
	}
	return out
}

// sortedIDs returns the keys of set in ascending order.
func sortedIDs(set map[int]geom.Point) []int {
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// assignSub maps a point to the index of the sub-square that owns it:
// the first quadrant strictly containing it, falling back to tolerant
// containment for points on the top/right boundary. Every point of the
// parent square is assigned to exactly one sub-square.
func assignSub(p geom.Point, subs [4]geom.Square) int {
	for i, s := range subs {
		if s.Rect().ContainsStrict(p) {
			return i
		}
	}
	for i, s := range subs {
		if s.Contains(p) {
			return i
		}
	}
	// Outside the parent square entirely: attribute to the nearest
	// sub-square so the caller's filters can still reject it consistently.
	best, bd := 0, math.Inf(1)
	for i, s := range subs {
		if d := s.Rect().DistTo(p); d < bd {
			best, bd = i, d
		}
	}
	return best
}
