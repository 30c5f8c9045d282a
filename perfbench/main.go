// Command perfbench is the repository benchmark. One run measures one
// workload for --seconds and prints, as its last line, one JSON object
// with the metrics and the correctness tally:
//
//	perfbench --workload solve-explore|solve-large|serve-mix|all --seed N
//	          --seconds S --trace 0|1 [--serve-bin path] [--out dir]
//
// With --trace 0 it reports the end-to-end metrics of the workload,
// measured untraced. With --trace 1 it reports the per-layer metrics: it
// calls each layer's public entry points from outside the program, for
// every solve case and serve shape (so one traced run covers the layers of
// all workloads), records spans around those calls, and writes them as
// trace-event JSON to --out. --workload all runs every workload end to end
// and then one traced run, printing each result as a table of metrics with
// units. `perfbench spec` prints BENCHMARK.json.
//
// perfbench/run.sh builds this command and dftp-serve from the checkout
// and runs it; see that script for the environment it sets.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "worker":
			os.Exit(workerMain(os.Args[2:]))
		case "spec":
			b, err := specJSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
			os.Stdout.Write(b)
			return
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	serveBin string
	outDir   string
	conns    int // serve-mix connections: at most nproc
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// result is the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: solve-explore, solve-large, serve-mix, or all")
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed: every input is generated from it")
	fs.IntVar(&cfg.seconds, "seconds", runSeconds, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	fs.StringVar(&cfg.serveBin, "serve-bin", filepath.Join(".bench_build", "perfbench", "bin", "dftp-serve"), "dftp-serve binary")
	fs.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	cfg.conns = runtime.NumCPU()
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		logf("perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	type job struct {
		workload string
		trace    bool
	}
	jobs := []job{{cfg.workload, cfg.trace}}
	if cfg.workload == "all" {
		// Every workload end to end, then one traced run for the layers.
		jobs = nil
		for _, w := range workloads {
			jobs = append(jobs, job{w.Name, false})
		}
		jobs = append(jobs, job{"all", true})
	} else if !knownWorkload(cfg.workload) {
		logf("perfbench: unknown workload %q", cfg.workload)
		return 2
	}

	env := environment()
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)
	// An interrupt cancels the run; workers and servers are still stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var last result
	for _, j := range jobs {
		c := cfg
		c.workload, c.trace = j.workload, j.trace
		res, err := runWorkload(ctx, c, env)
		if err == nil {
			err = ctx.Err() // an interrupted run has no result
		}
		if err != nil {
			logf("perfbench: %s: %v", j.workload, err)
			return 1
		}
		printTable(j.workload, j.trace, res)
		last = res
	}
	if len(jobs) > 1 {
		return 0 // the combined view is the tables above
	}
	b, err := json.Marshal(last)
	if err != nil {
		logf("perfbench: %v", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// runWorkload runs one workload and returns its result with exactly the
// metric set of its mode.
func runWorkload(ctx context.Context, cfg config, env map[string]string) (result, error) {
	t := &tally{}
	vals := map[string]float64{}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
		if err := runLayers(ctx, cfg, t, vals, env); err != nil {
			return result{}, err
		}
	} else if cases := casesOf(cfg.workload); cases != nil {
		vals = runSolveE2E(ctx, cfg, cases, t)
	} else {
		var err error
		if vals, err = runServeE2E(ctx, cfg, t); err != nil {
			return result{}, err
		}
	}
	for _, r := range t.reasons {
		logf("FAILED: %s", r)
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v: too few samples", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted == 0 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

// runLayers is a traced run: the layer calls of both solve-* workloads and
// a traced serve-mix phase, then the span file.
func runLayers(ctx context.Context, cfg config, t *tally, out map[string]float64, env map[string]string) error {
	log := &spanLog{}
	for _, k := range eventKinds {
		out["sim.events."+k] = 0
	}
	explore := runSolveLayers(ctx, cfg, exploreCases, t, log, out)
	large := runSolveLayers(ctx, cfg, largeCases, t, log, out)
	fitGrowth(exploreCases, explore, out)
	// The library path's cost of tracing: the simulator's event recorder
	// and the benchmark's spans. The server's (obs) is measured on serve-mix.
	var plainMs, tracedMs float64
	for _, p := range append(explore, large...) {
		plainMs += p.plain.OpMs
		tracedMs += p.traced.OpMs
	}
	out["sim.trace_overhead"] = tracedMs / plainMs
	serveSecs := max(float64(cfg.seconds)/5, 2)
	if err := runServeLayers(ctx, cfg, t, log, out, time.Duration(serveSecs*float64(time.Second))); err != nil {
		return err
	}
	for layer, ms := range log.selfTimes() {
		out[layer+".self_ms"] = ms
	}
	out["bench.error_rate"] = float64(t.failed) / float64(max(t.attempted, 1))
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := log.write(path, env); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	fmt.Printf("spans %s (%d spans; open in Perfetto)\n", path, len(log.spans))
	return nil
}

// printTable prints every metric of a result by name with its unit.
func printTable(workload string, traced bool, r result) {
	mode := "end-to-end"
	if traced {
		mode = "per-layer"
	}
	fmt.Printf("== %s (%s): attempted %d, failed %d, error_rate %.4g\n",
		workload, mode, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-44s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}
