package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freezetag/internal/service"
)

// TestBenchmarkJSONMatchesSpec: BENCHMARK.json is exactly what `perfbench
// spec` prints, and it respects the format's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchSpec
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	want := spec()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from the spec; regenerate it with `perfbench spec`")
	}
	if err := validateSpec(got); err != nil {
		t.Fatal(err)
	}
	for _, m := range want.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Fatalf("setup_s must be in s, lower is better: %+v", m)
		}
	}
}

func TestValidateSpecRejects(t *testing.T) {
	for name, mutate := range map[string]func(*benchSpec){
		"bad name":       func(s *benchSpec) { s.PerLayer[0].Name = "sim steps" },
		"repeated name":  func(s *benchSpec) { s.PerLayer[1].Name = s.PerLayer[0].Name },
		"no unit":        func(s *benchSpec) { s.PerLayer[0].Unit = "" },
		"no direction":   func(s *benchSpec) { s.EndToEnd[0].Better = "" },
		"no bound":       func(s *benchSpec) { s.EndToEnd[0].Bound = nil },
		"bound too wide": func(s *benchSpec) { s.EndToEnd[0].Bound = bound(0.3) },
		"too many e2e": func(s *benchSpec) {
			for i := 0; i < 16; i++ {
				s.EndToEnd = append(s.EndToEnd, metricDef{Name: "x" + strings.Repeat("y", i), Unit: "s", Better: "lower", Bound: bound(0.1)})
			}
		},
		"too many per-layer": func(s *benchSpec) {
			for i := 0; i < 128; i++ {
				s.PerLayer = append(s.PerLayer, metricDef{Name: "z" + strings.Repeat("y", i%60) + string(rune('a'+i/60)), Unit: "ms", Better: "lower"})
			}
		},
	} {
		s := spec()
		s.EndToEnd = append([]metricDef(nil), s.EndToEnd...)
		mutate(&s)
		if validateSpec(s) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSeedIsAnArgument: --seed is a flag, and the inputs follow it.
func TestSeedIsAnArgument(t *testing.T) {
	if code := benchMain([]string{"--workload", "nope", "--seed", "7"}); code != 2 {
		t.Fatalf("unknown workload: exit %d, want 2", code)
	}
	c := solveCase{Tag: "t", Alg: "awave", Family: "disk", Metric: "l2", N: 40, Param: 0.9}
	a := runOp(context.Background(), opRequest{Mode: modePlain, Case: c, Seed: 1})
	b := runOp(context.Background(), opRequest{Mode: modePlain, Case: c, Seed: 1})
	d := runOp(context.Background(), opRequest{Mode: modePlain, Case: c, Seed: 2})
	if a.Digest != b.Digest || a.Digest == d.Digest {
		t.Fatalf("digests seed1 %s %s, seed2 %s: want equal for equal seeds only", a.Digest, b.Digest, d.Digest)
	}
	m1, _ := newMix(1)
	m2, _ := newMix(2)
	if bytes.Equal(m1.hot[0].body, m2.hot[0].body) {
		t.Fatal("serve-mix requests do not depend on the seed")
	}
}

// TestCorruptedDigestRaisesErrorRate: a solve whose digest differs from
// the recorded one at the default seed counts as failed.
func TestCorruptedDigestRaisesErrorRate(t *testing.T) {
	c := solveCase{Tag: "t", Alg: "agrid", Family: "disk", Metric: "l2", N: 60, Param: 0.9}
	r := runOp(context.Background(), opRequest{Mode: modePlain, Case: c, Seed: defaultSeed})
	var good, bad tally
	newOpChecker(defaultSeed, map[string]string{"t#0": r.Digest}).check(&good, r, 0)
	newOpChecker(defaultSeed, map[string]string{"t#0": "0123456789abcdef"}).check(&bad, r, 0)
	if good.failed != 0 || good.attempted != 1 {
		t.Fatalf("recorded digest: %+v", good.reasons)
	}
	if bad.failed != 1 {
		t.Fatal("a corrupted expected digest did not count as a failure")
	}
}

// TestRecordDigests prints expectedDigests afresh when
// PERFBENCH_RECORD_DIGESTS=1: run it after a deliberate change in
// behaviour, and paste its output into solve.go.
func TestRecordDigests(t *testing.T) {
	if os.Getenv("PERFBENCH_RECORD_DIGESTS") != "1" {
		t.Skip("set PERFBENCH_RECORD_DIGESTS=1 to record")
	}
	for _, c := range append(append([]solveCase{}, exploreCases...), largeCases...) {
		for pass := 0; pass < recordedPasses; pass++ {
			r := runOp(context.Background(), opRequest{Mode: modePlain, Case: c, Seed: passSeed(defaultSeed, pass)})
			if r.Err != "" {
				t.Fatal(r.Err)
			}
			fmt.Printf("\t%q: %q,\n", fmt.Sprintf("%s#%d", c.Tag, pass), r.Digest)
		}
	}
}

// TestLayersModeMatchesPlain: the layer-by-layer op calls each entry point
// separately but builds the same response.
func TestLayersModeMatchesPlain(t *testing.T) {
	c := solveCase{Tag: "t", Alg: "aseparator", Family: "walk", Metric: "lp:3", N: 120, Param: 0.9}
	p := runOp(context.Background(), opRequest{Mode: modePlain, Case: c, Seed: 3})
	l := runOp(context.Background(), opRequest{Mode: modeLayers, Case: c, Seed: 3, Op: "x"})
	tr := runOp(context.Background(), opRequest{Mode: modeTraced, Case: c, Seed: 3, Op: "y"})
	if p.Err != "" || p.Digest != l.Digest || p.Digest != tr.Digest {
		t.Fatalf("digests plain %s layers %s traced %s (err %q)", p.Digest, l.Digest, tr.Digest, p.Err)
	}
	for _, k := range []string{"gen_ms", "ell_ms", "rho_ms", "xi_ms", "tuple_ms", "hash_ms", "solve_ms"} {
		if _, ok := l.Layers[k]; !ok {
			t.Errorf("layer %s not timed", k)
		}
	}
	if tr.Events["look"] != tr.Looks || len(tr.Spans) == 0 || len(p.Spans) != 0 {
		t.Fatalf("traced op: %d look events vs %d looks, %d spans; plain op %d spans", tr.Events["look"], tr.Looks, len(tr.Spans), len(p.Spans))
	}
}

// corruptingServer serves the real service, but flips a digit of the
// makespan in the responses selected by corrupt.
func corruptingServer(t *testing.T, corrupt func(n int64) bool) *httptest.Server {
	svc := service.New(service.Config{Workers: 2, QueueDepth: 16, CacheBytes: 8 << 20})
	t.Cleanup(svc.Close)
	h := svc.Handler()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if corrupt(n.Add(1)) {
			i := bytes.Index(body, []byte(`"makespan":`)) + len(`"makespan":`)
			body[i] = '0' + (body[i]-'0'+1)%10
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// serveOnce sends reqs through the checks of a serve-mix run and returns
// the tally.
func serveOnce(t *testing.T, srv *httptest.Server, reqs []mixReq) *tally {
	tl := &tally{}
	r, err := newServeRun(config{seed: 5, conns: 1}, tl)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(srv.URL, 1, 5)
	defer c.close()
	s, _ := c.closedLoop(context.Background(), reqs)
	r.check(s)
	r.checkParity(context.Background())
	return tl
}

func TestServedBodyChecks(t *testing.T) {
	mx, err := newMix(5)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []mixReq{mx.hot[0], mx.shapeReq("cold"), mx.shapeReq("faulted"), mx.shapeReq("race"), mx.inline[0], mx.hot[0]}

	clean := serveOnce(t, corruptingServer(t, func(int64) bool { return false }), reqs)
	if clean.failed != 0 || clean.attempted != int64(len(reqs)) {
		t.Fatalf("clean server: attempted %d failed %d: %v", clean.attempted, clean.failed, clean.reasons)
	}
	// A corrupted miss disagrees with the body the library builds.
	miss := serveOnce(t, corruptingServer(t, func(n int64) bool { return n == 2 }), reqs[:4])
	if miss.failed != 1 {
		t.Fatalf("corrupted miss: failed %d, want 1: %v", miss.failed, miss.reasons)
	}
	// A corrupted cache hit disagrees with its first miss.
	hit := serveOnce(t, corruptingServer(t, func(n int64) bool { return n == 6 }), reqs)
	if hit.failed != 1 {
		t.Fatalf("corrupted hit: failed %d, want 1: %v", hit.failed, hit.reasons)
	}
}

// TestOpenLoopTimesFromDueTime: a server that takes 20 ms per request,
// offered 100 requests/s over one connection, falls behind. The client
// keeps the schedule, so later requests are timed from when they were due
// and their latency grows well past the service time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1, 1)
	defer c.close()
	mx, err := newMix(1)
	if err != nil {
		t.Fatal(err)
	}
	ph := c.openLoop(context.Background(), mx.next(30), 100, 5*time.Second)
	if len(ph.samples) != 30 || ph.aborted {
		t.Fatalf("sent %d of 30, aborted=%v", len(ph.samples), ph.aborted)
	}
	last := ph.samples[len(ph.samples)-1]
	if lat := last.latencyMs(); lat < 200 {
		t.Fatalf("last request latency %.1f ms: the wait for a connection was not counted", lat)
	}
	if g := backlogGrowth(ph.samples); g <= maxBacklogMs {
		t.Fatalf("backlog growth %.1f ms not detected", g)
	}
	if quantile(ph.lateMs, 0.99) > 50 {
		t.Fatalf("generator ran %.1f ms late: it must not wait for responses", quantile(ph.lateMs, 0.99))
	}
}

func TestSelfTimes(t *testing.T) {
	l := &spanLog{}
	l.addOp([]span{
		{Op: "a", Layer: "bench", ID: 0, Parent: -1, Start: 0, Dur: 100},
		{Op: "a", Layer: "sim", ID: 1, Parent: 0, Start: 10, Dur: 50},
		{Op: "a", Layer: "service", ID: 2, Parent: 0, Start: 40, Dur: 40}, // overlaps the sim span by 20
		{Op: "b", Layer: "sim", ID: 0, Parent: -1, Start: 0, Dur: 30},
	})
	got := l.selfTimes()
	for layer, ns := range map[string]float64{"bench": 30, "sim": 80, "service": 40} {
		if got[layer] != ns/1e6 {
			t.Errorf("%s self %.6f ms, want %.6f", layer, got[layer], ns/1e6)
		}
	}
}

func TestParseServerTiming(t *testing.T) {
	st := parseServerTiming(`cache;desc=miss, resolve;dur=0.120, queue;dur=0.010, sim;dur=12.500, marshal;dur=0.040, total;dur=12.700, traceid;desc="abc"`)
	want := stageTimes{outcome: "miss", resolve: 0.12, queue: 0.01, sim: 12.5, marshal: 0.04, total: 12.7}
	if st != want {
		t.Fatalf("got %+v", st)
	}
}

// TestFixedRateWindowFloor: when set-up and passes use up the run, the
// fixed-rate windows still run for minWindow each.
func TestFixedRateWindowFloor(t *testing.T) {
	for _, left := range []time.Duration{-3 * time.Second, 0, time.Second} {
		if w := fixedRateWindow(left); w != minWindow {
			t.Errorf("%v left: window %v, want %v", left, w, minWindow)
		}
	}
	if w := fixedRateWindow(24 * time.Second); w != 1700*time.Millisecond {
		t.Errorf("24 s left: window %v, want 1.7 s", w)
	}
}

// kneeOf runs the knee search against a server whose handler is h.
func kneeOf(t *testing.T, h http.HandlerFunc) float64 {
	srv := httptest.NewServer(h)
	defer srv.Close()
	r, err := newServeRun(config{seed: 5, conns: 2}, &tally{})
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(srv.URL, 2, 5)
	defer c.close()
	return r.knee(context.Background(), c, 600*time.Millisecond, time.Now().Add(15*time.Second))
}

// TestKneeFindsCapacity: against a server that serves one request at a time
// in 4 ms, so at most 250 req/s, the search lands near 250 req/s.
func TestKneeFindsCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a knee search")
	}
	var mu sync.Mutex
	k := kneeOf(t, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		time.Sleep(4 * time.Millisecond)
		mu.Unlock()
		w.Write([]byte(`{"allAwake":true}`))
	})
	if k < 120 || k > 400 {
		t.Fatalf("knee %.0f req/s, want near the 250 req/s capacity", k)
	}
}

// TestKneeHasNoLowCeiling: against a server that answers at once, the
// doubling ladder climbs far above the rates the workload offers.
func TestKneeHasNoLowCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a knee search")
	}
	k := kneeOf(t, func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(`{"allAwake":true}`)) })
	if k < 2000 {
		t.Fatalf("knee %.0f req/s, want above 2000", k)
	}
}

// TestServeMixShortRun: serve-mix end to end against a real dftp-serve with
// --seconds 1, shorter than its set-up and passes, still gives every
// end-to-end metric and no failed op.
func TestServeMixShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs dftp-serve")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dftp-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "freezetag/cmd/dftp-serve").CombinedOutput(); err != nil {
		t.Fatalf("build dftp-serve: %v\n%s", err, out)
	}
	cfg := config{workload: "serve-mix", seed: 3, seconds: 1, serveBin: bin, outDir: dir, conns: runtime.NumCPU()}
	res, err := runWorkload(context.Background(), cfg, environment())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("correct %v, failed %d of %d, %d metrics", res.Correct, res.Failed, res.Attempted, len(res.Metrics))
	}
}
