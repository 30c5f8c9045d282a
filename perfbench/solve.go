package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"freezetag/internal/metrics"
)

// defaultSeed is the seed whose response digests are recorded below.
const defaultSeed = 1

// recordedPasses is how many passes of a default-seed run have their
// response digests recorded.
const recordedPasses = 8

// expectedDigests are the first 8 bytes (hex) of the SHA-256 of each
// solve-* response body of the first recordedPasses passes at the default
// seed, keyed by "tag#pass". The bodies are deterministic, so any change
// here is a change in behaviour. TestRecordDigests regenerates them.
var expectedDigests = map[string]string{
	"awave-disk-125#0":            "0317c7a7a4ba9b8e",
	"awave-disk-125#1":            "8ac4684ec83826fe",
	"awave-disk-125#2":            "086230275d493ad6",
	"awave-disk-125#3":            "33bdce5299410658",
	"awave-disk-125#4":            "dedcb05e1df2b94f",
	"awave-disk-125#5":            "cd9a9e69f9458c75",
	"awave-disk-125#6":            "f4bb703757bf93fc",
	"awave-disk-125#7":            "8b1a8441cf269865",
	"awave-disk-250#0":            "6be0582f710d9023",
	"awave-disk-250#1":            "7cd907a51bae7567",
	"awave-disk-250#2":            "f388d29f095f8ca2",
	"awave-disk-250#3":            "3c6e4a1e59b070d7",
	"awave-disk-250#4":            "eec83d94ed1868e0",
	"awave-disk-250#5":            "7d33c2b02d5f0600",
	"awave-disk-250#6":            "898c36156322fbc1",
	"awave-disk-250#7":            "361bbd38574f5af6",
	"awave-disk-500#0":            "bb19e996edac1db1",
	"awave-disk-500#1":            "762c6a7461e66b2c",
	"awave-disk-500#2":            "5699c426525d3211",
	"awave-disk-500#3":            "6a2d4b517573ba7e",
	"awave-disk-500#4":            "8d9c863ca94f2c16",
	"awave-disk-500#5":            "c2fd3d510a66a3a0",
	"awave-disk-500#6":            "a45de9ba334ddb6d",
	"awave-disk-500#7":            "0e8be6be80b95703",
	"agrid-disk-64000#0":          "30f964a875b94012",
	"agrid-disk-64000#1":          "f0e7ba23f7b50808",
	"agrid-disk-64000#2":          "24a067872285bacf",
	"agrid-disk-64000#3":          "2d09b2f9e6c47cb2",
	"agrid-disk-64000#4":          "4e6ab861afa69c8c",
	"agrid-disk-64000#5":          "0509a184ef7e8de0",
	"agrid-disk-64000#6":          "30a97626b770d473",
	"agrid-disk-64000#7":          "0d88cc24b45ce544",
	"agrid-disk-16000-lp3#0":      "5a97d9cd948af7fc",
	"agrid-disk-16000-lp3#1":      "fdbcbd4cd3683a5c",
	"agrid-disk-16000-lp3#2":      "5c523838514f01ce",
	"agrid-disk-16000-lp3#3":      "8e8eed5640015893",
	"agrid-disk-16000-lp3#4":      "21fa17bfdb478e6b",
	"agrid-disk-16000-lp3#5":      "0a3d426c4f6aac52",
	"agrid-disk-16000-lp3#6":      "43a3a49a4fea4e76",
	"agrid-disk-16000-lp3#7":      "872de3047ced4e57",
	"aseparator-walk-16000#0":     "d49992fdd2e1d8f4",
	"aseparator-walk-16000#1":     "a20c8ea95cd94f95",
	"aseparator-walk-16000#2":     "79aaa3e093b8bec8",
	"aseparator-walk-16000#3":     "22b6f69351edb8ee",
	"aseparator-walk-16000#4":     "023ed3b0c653a3b0",
	"aseparator-walk-16000#5":     "e6625cd4fc1f2088",
	"aseparator-walk-16000#6":     "04a829a0895f8323",
	"aseparator-walk-16000#7":     "70deb877aab3d9c0",
	"aseparatorauto-disk-16000#0": "2549f30cca7fed2b",
	"aseparatorauto-disk-16000#1": "c4f1033e5e2b9b0b",
	"aseparatorauto-disk-16000#2": "64e13544cac7baec",
	"aseparatorauto-disk-16000#3": "fefbe9df2140b0d8",
	"aseparatorauto-disk-16000#4": "9ad4992e22188a4f",
	"aseparatorauto-disk-16000#5": "86f448bf7cca20fc",
	"aseparatorauto-disk-16000#6": "738ec8c9c44e3dd8",
	"aseparatorauto-disk-16000#7": "6985734047ade12c",
}

// tally counts attempted and failed ops and keeps the first failure reasons.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reasons   []string
}

func (t *tally) ok() { t.mu.Lock(); t.attempted++; t.mu.Unlock() }

// demote records a failed check on an op already counted as attempted.
func (t *tally) demote(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// failures returns the number of failed ops so far.
func (t *tally) failures() int64 { t.mu.Lock(); defer t.mu.Unlock(); return t.failed }

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// opChecker checks op results: no error, every robot awake, no budget
// violation, the recorded digest at the default seed, and the same digest
// for the same case and pass within a run.
type opChecker struct {
	seed     int64
	expected map[string]string
	mu       sync.Mutex
	seen     map[string]string
}

func newOpChecker(seed int64, expected map[string]string) *opChecker {
	return &opChecker{seed: seed, expected: expected, seen: map[string]string{}}
}

// check checks r, the op of pass (negative for set-up ops, which have no
// recorded digest).
func (c *opChecker) check(t *tally, r opResult, pass int) {
	key := fmt.Sprintf("%s#%d", r.Tag, pass)
	switch {
	case r.Err != "":
		t.fail("%s: %s", r.Tag, r.Err)
		return
	case !r.AllAwake:
		t.fail("%s: not all robots awake", r.Tag)
		return
	case r.Violations > 0:
		t.fail("%s: %d budget violations", r.Tag, r.Violations)
		return
	}
	if want, ok := c.expected[key]; ok && c.seed == defaultSeed && r.Digest != want {
		t.fail("%s: digest %s, recorded %s", key, r.Digest, want)
		return
	}
	c.mu.Lock()
	prev, ok := c.seen[key]
	if !ok {
		c.seen[key] = r.Digest
	}
	c.mu.Unlock()
	if ok && prev != r.Digest {
		t.fail("%s: digest %s differs from %s earlier in this run", key, r.Digest, prev)
		return
	}
	t.ok()
}

// passSeed is the instance seed of pass i of a run with the given seed:
// every pass solves fresh instances, so a run averages over many draws.
func passSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// setupSeed is the instance seed of set-up i of a run with the given seed:
// every set-up draws its own instances, so that setup_s, their median,
// does not hang on how long one draw takes.
func setupSeed(seed int64, i int) int64 { return seed*1000 + 500 + int64(i) }

// warmupCase is a workload's first case at 1/16 of its size (at least 64
// robots): the set-up a run does before its first timed op.
func warmupCase(cases []solveCase) solveCase {
	c := cases[0]
	c.N = max(c.N/16, 64)
	c.Tag += "-warmup"
	return c
}

// runSolveE2E measures a solve-* workload untraced. Set-up is a worker
// process solving the warm-up case: three times before the first timed op,
// and once more after every pass, so that setup_s, their median, samples
// the whole run as pass_s does. Passes alternate: a serial pass (one
// caller), then a concurrent pass (nproc callers solving each case
// together), each over fresh instances, until the time is up and each kind
// has run at least twice. Every op is a fresh worker process, so its VmHWM
// is its own peak.
func runSolveE2E(ctx context.Context, cfg config, cases []solveCase, t *tally) map[string]float64 {
	chk := newOpChecker(cfg.seed, expectedDigests)
	var setups []float64
	setup := func() {
		i := len(setups)
		t0 := time.Now()
		r := spawnOp(ctx, opRequest{Mode: modePlain, Case: warmupCase(cases), Seed: setupSeed(cfg.seed, i)})
		setups = append(setups, time.Since(t0).Seconds())
		chk.check(t, r, -1-i)
	}
	for i := 0; i < 3; i++ {
		setup()
	}
	start := time.Now()
	peak := 0.0
	// Per pass: wall time and the p50 of its op latencies. Each figure is
	// the median over the passes of its kind.
	stats := map[string][]float64{}
	for i := 0; ctx.Err() == nil; i++ {
		kind, other := "low", "high"
		if i%2 == 1 {
			kind, other = other, kind
		}
		if len(stats["wall."+kind]) >= 2 && len(stats["wall."+other]) >= 2 &&
			time.Since(start).Seconds()+median(stats["wall."+kind]) > float64(cfg.seconds) {
			break
		}
		t0 := time.Now()
		var rs []opResult
		if kind == "low" {
			for _, c := range cases {
				rs = append(rs, spawnOp(ctx, opRequest{Mode: modePlain, Case: c, Seed: passSeed(cfg.seed, i)}))
			}
		} else {
			rs = concurrentPass(ctx, cases, passSeed(cfg.seed, i))
		}
		stats["wall."+kind] = append(stats["wall."+kind], time.Since(t0).Seconds())
		var ms []float64
		for _, r := range rs {
			chk.check(t, r, i)
			peak = max(peak, r.HWMMB)
			ms = append(ms, r.OpMs)
		}
		stats["p50_ms."+kind] = append(stats["p50_ms."+kind], median(ms))
		setup()
	}
	logf("solve: serial passes %.3f s, concurrent passes %.3f s", stats["wall.low"], stats["wall.high"])
	return map[string]float64{
		"setup_s":     median(setups),
		"pass_s":      median(stats["wall.low"]),
		"peak_rss_mb": peak,
		"p50_ms.low":  median(stats["p50_ms.low"]),
		"p50_ms.high": median(stats["p50_ms.high"]),
	}
}

// concurrentPass runs the pass with nproc callers: each case is solved by
// all of them at once, and the next case starts when they are all done,
// so every op shares the machine with its twins only.
func concurrentPass(ctx context.Context, cases []solveCase, seed int64) []opResult {
	var out []opResult
	for _, c := range cases {
		rs := make([]opResult, runtime.NumCPU())
		var wg sync.WaitGroup
		for w := range rs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rs[w] = spawnOp(ctx, opRequest{Mode: modePlain, Case: c, Seed: seed})
			}()
		}
		wg.Wait()
		out = append(out, rs...)
	}
	return out
}

// caseLayers is one solve case's three ops in a traced run.
type caseLayers struct {
	plain, traced, layers opResult
}

// runSolveLayers is the traced part of a run for one solve-* workload:
// per case, a plain op, a traced op and a layer-by-layer op, each in its
// own worker process. It fills the per-layer metrics of the cases.
func runSolveLayers(ctx context.Context, cfg config, cases []solveCase, t *tally, log *spanLog, out map[string]float64) []caseLayers {
	chk := newOpChecker(cfg.seed, expectedDigests)
	var all []caseLayers
	for _, c := range cases {
		cl := caseLayers{
			plain:  spawnOp(ctx, opRequest{Mode: modePlain, Case: c, Seed: passSeed(cfg.seed, 0)}),
			traced: spawnOp(ctx, opRequest{Mode: modeTraced, Case: c, Seed: passSeed(cfg.seed, 0), Op: "traced " + c.Tag}),
			layers: spawnOp(ctx, opRequest{Mode: modeLayers, Case: c, Seed: passSeed(cfg.seed, 0), Op: "layers " + c.Tag}),
		}
		all = append(all, cl)
		for _, r := range []opResult{cl.plain, cl.traced, cl.layers} {
			chk.check(t, r, 0)
		}
		lay := cl.layers
		if cl.plain.Steps != cl.traced.Steps || cl.plain.Steps != lay.Steps {
			t.demote("%s: steps differ between plain (%d), traced (%d) and layer (%d) ops", c.Tag, cl.plain.Steps, cl.traced.Steps, lay.Steps)
		}
		log.addOp(cl.traced.Spans)
		log.addOp(lay.Spans)
		for kind, n := range cl.traced.Events {
			out["sim.events."+kind] += float64(n)
		}
		for _, k := range []struct{ metric, layer string }{
			{"instance.gen_ms", "gen_ms"}, {"instance.hash_ms", "hash_ms"},
			{"diskgraph.ell_ms", "ell_ms"}, {"diskgraph.rho_ms", "rho_ms"}, {"diskgraph.xi_ms", "xi_ms"},
			{"dftp.tuple_ms", "tuple_ms"}, {"sim.solve_ms", "solve_ms"},
		} {
			out[k.metric+"."+c.Tag] = lay.Layers[k.layer]
		}
		out["sim.ns_per_step."+c.Tag] = lay.Layers["solve_ms"] * 1e6 / float64(max(lay.Steps, 1))
		out["sim.steps."+c.Tag] = float64(lay.Steps)
		out["sim.looks."+c.Tag] = float64(lay.Looks)
		out["sim.moves."+c.Tag] = float64(lay.Moves)
		out["sim.peak_rss_mb."+c.Tag] = cl.plain.HWMMB
	}
	return all
}

// fitGrowth fits the log-log growth exponents of peak RSS and simulator
// steps over the cases' n ladder.
func fitGrowth(cases []solveCase, ops []caseLayers, out map[string]float64) {
	var ns, rss, steps []float64
	for i, c := range cases {
		ns = append(ns, float64(c.N))
		rss = append(rss, ops[i].plain.HWMMB)
		steps = append(steps, float64(ops[i].plain.Steps))
	}
	out["sim.rss_growth_exp"] = metrics.GrowthExponent(ns, rss)
	out["sim.steps_growth_exp"] = metrics.GrowthExponent(ns, steps)
}
