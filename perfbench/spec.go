package main

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// solveCase is one library-path solve of a solve-* workload: an instance
// family at a size, solved by one algorithm under one metric. The instance
// seed is the benchmark's --seed.
type solveCase struct {
	Tag    string  `json:"tag"`
	Alg    string  `json:"alg"`
	Family string  `json:"family"`
	Metric string  `json:"metric"`
	N      int     `json:"n"`
	Param  float64 `json:"param"`
}

// exploreCases: AWave on uniform disks. The simulator does little but Look
// and explore, and peak memory grows superlinearly in n.
var exploreCases = []solveCase{
	{"awave-disk-125", "awave", "disk", "l2", 125, 0.9},
	{"awave-disk-250", "awave", "disk", "l2", 250, 0.9},
	{"awave-disk-500", "awave", "disk", "l2", 500, 0.9},
}

// largeCases: the other three algorithms at n ≥ 16000, where parameter
// derivation is large and the handoff/move path dominates the simulator.
var largeCases = []solveCase{
	{"agrid-disk-64000", "agrid", "disk", "l2", 64000, 0.9},
	{"agrid-disk-16000-lp3", "agrid", "disk", "lp:3", 16000, 0.9},
	{"aseparator-walk-16000", "aseparator", "walk", "l2", 16000, 0.9},
	{"aseparatorauto-disk-16000", "aseparatorauto", "disk", "l2", 16000, 0.9},
}

// workload is one named input set of the benchmark.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workload{
	{"solve-explore", "AWave disk n=125..500 on the library path: Look/explore-bound simulator whose memory grows superlinearly; derivation is negligible"},
	{"solve-large", "AGrid, ASeparator and ASeparatorAuto at n=16000..64000: handoff/move-bound simulator, large derivation, the lp DistBatch kernel"},
	{"serve-mix", "dftp-serve driven open-loop over loopback: 82% cache hits as BENCH_8 measured (8% re-derive inline instances), misses with eviction, faults, races"},
}

// casesOf returns the solve cases of a solve-* workload (nil for serve-mix).
func casesOf(name string) []solveCase {
	switch name {
	case "solve-explore":
		return exploreCases
	case "solve-large":
		return largeCases
	}
	return nil
}

// metricDef describes one reported metric. Bound is set for end-to-end
// metrics only: the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd lists the metrics a user of the library or the daemon sees.
// Every workload reports all of them. An op is one library solve on the
// solve-* workloads and one HTTP request on serve-mix. pass_s is the wall
// time of one serial pass over a fixed list of ops. p50_ms is the median op
// latency: on serve-mix at two fixed offered rates, timed from when each
// request was due; on the solve-* workloads with one caller (".low") and
// with nproc concurrent callers (".high"). peak_rss_mb is the largest
// VmHWM of a process doing the work. The serve-mix p99s and knee vary by
// 20–60% between runs on a shared 2-vCPU box, too much to gate on, so they
// are per-layer metrics of the traced run (serve.*).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", bound(0.25)},
	{"pass_s", "s", "lower", bound(0.25)},
	{"peak_rss_mb", "MB", "lower", bound(0.1)},
	{"p50_ms.low", "ms", "lower", bound(0.25)},
	{"p50_ms.high", "ms", "lower", bound(0.25)},
}

// serveShapes are the request shapes of the serve-mix workload, in mix order.
var serveShapes = []string{"hot", "inline-hot", "cold", "faulted", "race"}

// eventKinds are the simulator event kinds a fault-free solve emits.
var eventKinds = []string{"move", "look", "wake", "spawn", "barrier", "done", "halt"}

// layers are the module names spans and self times are attributed to.
// "bench" is the harness itself: client overhead, network and waiting.
var layers = []string{"bench", "instance", "diskgraph", "dftp", "sim", "portfolio", "service"}

// perLayer lists the traced run's metrics: layer timings per solve case and
// per serve shape, exact simulator counts, fitted growth exponents,
// /metricsz deltas, event totals, self time per layer, and the overhead of
// tracing on the library path (sim) and in the server (obs).
func perLayer() []metricDef {
	var ms []metricDef
	add := func(name, unit, better string) { ms = append(ms, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, c := range append(append([]solveCase{}, exploreCases...), largeCases...) {
		add("instance.gen_ms."+c.Tag, "ms", "lower")
		add("instance.hash_ms."+c.Tag, "ms", "lower")
		add("diskgraph.ell_ms."+c.Tag, "ms", "lower")
		add("diskgraph.rho_ms."+c.Tag, "ms", "lower")
		add("diskgraph.xi_ms."+c.Tag, "ms", "lower")
		add("dftp.tuple_ms."+c.Tag, "ms", "lower")
		add("sim.solve_ms."+c.Tag, "ms", "lower")
		add("sim.ns_per_step."+c.Tag, "ns", "lower")
		add("sim.steps."+c.Tag, "count", "lower")
		add("sim.looks."+c.Tag, "count", "lower")
		add("sim.moves."+c.Tag, "count", "lower")
		add("sim.peak_rss_mb."+c.Tag, "MB", "lower")
	}
	add("sim.rss_growth_exp", "exponent", "lower")
	add("sim.steps_growth_exp", "exponent", "lower")
	for _, k := range eventKinds {
		add("sim.events."+k, "count", "lower")
	}
	for _, sh := range serveShapes {
		add("service.resolve_ms."+sh, "ms", "lower")
		add("service.sim_ms."+sh, "ms", "lower")
	}
	add("service.queue_ms.p99", "ms", "lower")
	add("service.marshal_ms.p50", "ms", "lower")
	add("service.client_overhead_ms.p50", "ms", "lower")
	add("service.hit_rate", "ratio", "higher")
	add("service.shed_rate", "ratio", "lower")
	add("service.alloc_kb_per_req", "KiB", "lower")
	add("service.gc_per_kreq", "count", "lower")
	add("service.cache_mb", "MiB", "lower")
	add("service.heap_inuse_mb", "MiB", "lower")
	add("sim.repairs_per_req.faulted", "count", "lower")
	add("sim.incomplete_per_kreq.faulted", "count", "lower")
	for _, l := range layers {
		add(l+".self_ms", "ms", "lower")
	}
	add("serve.p99_ms.low", "ms", "lower")
	add("serve.p99_ms.high", "ms", "lower")
	add("serve.knee_qps", "req/s", "higher")
	add("sim.trace_overhead", "ratio", "lower")
	add("obs.trace_overhead", "ratio", "lower")
	add("bench.late_ms.p99", "ms", "lower")
	add("bench.error_rate", "ratio", "lower")
	return ms
}

// benchSpec is the shape of BENCHMARK.json.
type benchSpec struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

// runSeconds is how long one run measures.
const runSeconds = 30

func spec() benchSpec {
	return benchSpec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validateSpec checks the limits BENCHMARK.json must respect: name and unit
// syntax, unique names, at most 16 end-to-end and 128 per-layer metrics,
// a better-direction on every metric and a bound on every end-to-end one.
func validateSpec(s benchSpec) error {
	seen := map[string]bool{}
	check := func(kind string, ms []metricDef, max int, wantBound bool) error {
		if len(ms) == 0 || len(ms) > max {
			return fmt.Errorf("%s: %d metrics, want 1..%d", kind, len(ms), max)
		}
		for _, m := range ms {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				return fmt.Errorf("%s: bad or repeated name %q", kind, m.Name)
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("%s %s: bad unit %q", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("%s %s: better must be lower or higher, got %q", kind, m.Name, m.Better)
			}
			if wantBound != (m.Bound != nil) || (m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				return fmt.Errorf("%s %s: bad bound", kind, m.Name)
			}
		}
		return nil
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		return fmt.Errorf("%d workloads, want 2..8", len(s.Workloads))
	}
	for _, w := range s.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] || w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %q: bad name or why", w.Name)
		}
		seen[w.Name] = true
	}
	if err := check("end_to_end", s.EndToEnd, 16, true); err != nil {
		return err
	}
	if err := check("per_layer", s.PerLayer, 128, false); err != nil {
		return err
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1..60", s.RunSeconds)
	}
	return nil
}

// specJSON renders BENCHMARK.json.
func specJSON() ([]byte, error) {
	b, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
