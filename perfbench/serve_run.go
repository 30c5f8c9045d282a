package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"freezetag/internal/dftp"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/portfolio"
	"freezetag/internal/service"
)

// Offered rates of the serve-mix workload, about 0.15 and 0.3 of the knee
// (about 770 req/s) on a 2-vCPU box. Nearer the knee the box's own slow
// spells are amplified into the tail and, over two connections, into the
// median: at ¾ of the knee p99 ranged 45–432 ms and p50 2.7–9.1 ms over
// five seeds.
const (
	lowRate  = 120.0
	highRate = 240.0
)

// Knee criteria: a rung passes when p99 stays within the latency limit,
// at most 1% of requests fail, and the client's backlog does not grow.
const (
	latencyLimitMs = 100.0
	maxErrorShare  = 0.01
	maxBacklogMs   = 50.0
)

// fixedRateWindows is how many windows each fixed rate runs in.
const fixedRateWindows = 6

// parityPerShape is how many requests of each shape per phase are
// re-built through the library and compared byte for byte.
const parityPerShape = 2

// serveRun is the state of one serve-mix run: the mix, the tally and the
// response checks.
type serveRun struct {
	cfg     config
	t       *tally
	mx      *mix
	first   map[string][32]byte // request key → digest of its first response
	parity  []sample            // responses to rebuild through the library
	warmSim map[string][]float64
	// faulted and incomplete count faulted responses, and those that left
	// robots asleep: crash-stop with repair does not always wake everyone.
	faulted, incomplete int
}

func newServeRun(cfg config, t *tally) (*serveRun, error) {
	mx, err := newMix(cfg.seed)
	if err != nil {
		return nil, err
	}
	return &serveRun{cfg: cfg, t: t, mx: mx, first: map[string][32]byte{}, warmSim: map[string][]float64{}}, nil
}

// check verifies one phase's responses: 200, every robot awake, no budget
// violation, and a body byte-equal to the first response for the same
// request. It samples responses for the library parity check.
func (r *serveRun) check(samples []sample) {
	taken := map[string]int{}
	for i := range samples {
		s := &samples[i]
		if err := r.verdict(s); err != nil {
			r.t.fail("%s %s: %v", s.req.shape, s.req.key, err)
			continue
		}
		r.t.ok()
		if taken[s.req.shape] < parityPerShape {
			taken[s.req.shape]++
			r.parity = append(r.parity, *s)
		}
	}
}

func (r *serveRun) verdict(s *sample) error {
	if s.err != nil {
		return s.err
	}
	if s.status != http.StatusOK {
		return fmt.Errorf("status %d (%s)", s.status, bytes.TrimSpace(s.body))
	}
	var b struct {
		AllAwake   bool     `json:"allAwake"`
		Violations []string `json:"violations"`
	}
	if err := json.Unmarshal(s.body, &b); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	if s.req.shape == "faulted" {
		// An incomplete wake-up under injected crashes is an outcome of
		// the fault model, reported as its own rate; the body is still
		// checked against the library and against earlier responses.
		r.faulted++
		if !b.AllAwake {
			r.incomplete++
		}
	} else if !b.AllAwake {
		return fmt.Errorf("not all robots awake")
	}
	if len(b.Violations) > 0 {
		return fmt.Errorf("%d budget violations", len(b.Violations))
	}
	d := sha256.Sum256(s.body)
	if prev, ok := r.first[s.req.key]; !ok {
		r.first[s.req.key] = d
	} else if prev != d {
		return fmt.Errorf("%s body differs from the first response for the same request", s.st.outcome)
	}
	return nil
}

// checkParity rebuilds every sampled response through the library, as
// `dftp-run -json` does, and counts a mismatch as a failed op.
func (r *serveRun) checkParity(ctx context.Context) {
	for _, s := range r.parity {
		want, err := libraryBody(ctx, s.req)
		switch {
		case err != nil:
			r.t.demote("parity %s: %v", s.req.key, err)
		case !bytes.Equal(want, s.body):
			r.t.demote("parity %s: served body differs from the library's", s.req.key)
		}
	}
	r.parity = nil
}

// libraryBody builds the response body of req on the library path.
func libraryBody(ctx context.Context, mr mixReq) ([]byte, error) {
	if mr.port != nil {
		req := mr.port
		inst, m, tup, err := resolveLib(req.Metric, req.Instance, req.Family, req.N, req.Param, req.Seed)
		if err != nil {
			return nil, err
		}
		var algs []dftp.Algorithm
		for _, name := range req.Algorithms {
			alg, err := service.AlgorithmByName(name)
			if err != nil {
				return nil, err
			}
			algs = append(algs, alg)
		}
		obj, err := portfolio.ParseObjective(req.Objective)
		if err != nil {
			return nil, err
		}
		pf := portfolio.Portfolio{Algorithms: algs, Objective: obj, Seed: req.Seed}
		res, err := portfolio.Race(pf, inst, tup, req.Budget, portfolio.Options{Metric: m, Faults: req.Faults})
		if err != nil {
			return nil, err
		}
		hash := instance.HashRequestFaulted(m, pf.Name(), inst, tup.Ell, tup.Rho, tup.N, req.Budget, req.Faults.Canon())
		out := service.NewPortfolioResponse(hash, pf, m, inst, tup, req.Budget, res)
		out.Faults = service.NewFaultsEcho(req.Faults, res.Res, inst.N())
		return json.Marshal(out)
	}
	req := mr.solve
	inst, m, tup, err := resolveLib(req.Metric, req.Instance, req.Family, req.N, req.Param, req.Seed)
	if err != nil {
		return nil, err
	}
	alg, err := service.AlgorithmByName(req.Algorithm)
	if err != nil {
		return nil, err
	}
	res, rep, err := dftp.SolveFaulted(ctx, nil, m, alg, inst, tup, req.Budget, req.Faults, nil)
	if err != nil {
		return nil, err
	}
	hash := instance.HashRequestFaulted(m, alg.Name(), inst, tup.Ell, tup.Rho, tup.N, req.Budget, req.Faults.Canon())
	out := service.NewSolveResponse(hash, alg, m, inst, tup, req.Budget, res, rep)
	out.Faults = service.NewFaultsEcho(req.Faults, res, inst.N())
	return json.Marshal(out)
}

func resolveLib(metric string, inline *instance.Instance, family string, n int, param float64, seed int64) (*instance.Instance, geom.Metric, dftp.Tuple, error) {
	if metric == "" {
		metric = "l2"
	}
	m, err := geom.ParseMetric(metric)
	if err != nil {
		return nil, nil, dftp.Tuple{}, err
	}
	inst := inline
	if inst == nil {
		if inst, err = instance.Family(family, n, param, seed); err != nil {
			return nil, nil, dftp.Tuple{}, err
		}
	}
	return inst, m, dftp.TupleFromParams(inst.ParamsIn(m)), nil
}

// setup starts a server and warms its cache with every hot and inline-hot
// key of mx, recording the warm-up misses' simulation times per shape.
func (r *serveRun) setup(ctx context.Context, mx *mix) (*server, *client, error) {
	srv, err := startServer(ctx, r.cfg.serveBin)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(srv.base, r.cfg.conns, r.cfg.seed)
	warm, _ := c.closedLoop(ctx, mx.warmup())
	r.check(warm)
	for _, s := range warm {
		if s.st.outcome == "miss" {
			r.warmSim[s.req.shape] = append(r.warmSim[s.req.shape], s.st.sim)
		}
	}
	return srv, c, nil
}

// latencies returns each sample's latency from its due time, in ms. A
// failed request counts as missing any limit: it reads as the client
// timeout.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.latencyMs()
		if s.err != nil || s.status != http.StatusOK {
			out[i] = math.Max(out[i], 10e3)
		}
	}
	return out
}

// rung is one step of the knee search.
type rung struct {
	rate, achieved, p99, backlogMs, score float64
	sent, failed                          int
	aborted, pass                         bool
}

func (r *serveRun) rung(ctx context.Context, c *client, rate float64, d time.Duration) rung {
	before := r.t.failures()
	ph := c.openLoop(ctx, r.mx.next(int(rate*d.Seconds())), rate, 500*time.Millisecond)
	r.check(ph.samples)
	g := rung{rate: rate, sent: len(ph.samples), failed: int(r.t.failures() - before), aborted: ph.aborted}
	g.p99 = windowedP99(ph.samples, 4)
	g.backlogMs = backlogGrowth(ph.samples)
	g.achieved = float64(len(ph.samples)) / ph.elapsed.Seconds()
	g.score = math.Max(g.p99/latencyLimitMs, g.backlogMs/maxBacklogMs)
	if g.aborted {
		g.score = math.Max(g.score, 10)
	}
	g.pass = g.sent > 0 && g.score <= 1 && float64(g.failed) <= maxErrorShare*float64(g.sent)
	return g
}

// windowedP99 splits samples into k runs of consecutive requests and
// returns the median of their p99 latencies.
func windowedP99(samples []sample, k int) float64 {
	if len(samples) < k {
		return quantile(latencies(samples), 0.99)
	}
	var p99s []float64
	for i := 0; i < k; i++ {
		p99s = append(p99s, quantile(latencies(samples[i*len(samples)/k:(i+1)*len(samples)/k]), 0.99))
	}
	return median(p99s)
}

// backlogGrowth is how much longer requests waited for a connection in the
// last quarter of a phase than in the first, in ms.
func backlogGrowth(samples []sample) float64 {
	q := len(samples) / 4
	if q == 0 {
		return 0
	}
	wait := func(ss []sample) float64 {
		t := 0.0
		for _, s := range ss {
			t += float64(s.sent.Sub(s.due)) / float64(time.Millisecond)
		}
		return t / float64(len(ss))
	}
	return wait(samples[len(samples)-q:]) - wait(samples[:q])
}

// knee searches for the highest offered rate at which the server keeps up.
// It starts at highRate, which the fixed-rate phases just sustained, and
// doubles the rate while rungs pass (halves it while they fail) until it
// has a passing rung below a failing one. Then it bisects between the two,
// in log rate, until they are within 10% of each other or the time is up.
// A rung's load score is the larger of p99/latencyLimitMs and backlog
// growth/maxBacklogMs, where p99 is the median over four quarters of the
// rung; it passes when the score is at most 1 and at most maxErrorShare of
// its requests fail. A failing rung is run once more and the better attempt
// kept, so one stall of the box does not decide it; a real overload fails
// both. The knee is the rate where the score crosses 1, interpolated in log
// score between the closest passing and failing rungs.
func (r *serveRun) knee(ctx context.Context, c *client, d time.Duration, deadline time.Time) float64 {
	var pass, fail *rung // the highest passing rung, and the lowest failing one above it
	for rate := highRate; ctx.Err() == nil && time.Now().Add(d).Before(deadline); {
		g := r.rung(ctx, c, rate, d)
		if !g.pass && time.Now().Add(d).Before(deadline) {
			time.Sleep(200 * time.Millisecond)
			if again := r.rung(ctx, c, rate, d); again.pass || again.score < g.score {
				g = again
			}
		}
		logf("serve: knee rung %.0f/s: achieved %.1f/s p99 %.1f ms backlog %+.1f ms failed %d/%d pass=%v",
			rate, g.achieved, g.p99, g.backlogMs, g.failed, g.sent, g.pass)
		if g.pass {
			pass = &g
			if fail != nil && fail.rate <= g.rate {
				fail = nil
			}
		} else {
			fail = &g
			if pass != nil && pass.rate >= g.rate {
				pass = nil
			}
		}
		switch {
		case fail == nil:
			rate *= 2
		case pass == nil:
			rate /= 2
		case fail.rate <= 1.1*pass.rate:
			return kneeBetween(pass, fail)
		default:
			rate = math.Sqrt(pass.rate * fail.rate)
		}
		time.Sleep(200 * time.Millisecond) // let the server finish its backlog and collect garbage
	}
	logf("serve: the knee search ran out of time")
	switch {
	case pass != nil && fail != nil:
		return kneeBetween(pass, fail)
	case pass != nil:
		return pass.achieved // the knee is higher still
	case fail != nil:
		return fail.achieved / fail.score
	}
	return 0
}

// kneeBetween interpolates the knee between a passing rung and a failing
// one at a higher rate.
func kneeBetween(pass, fail *rung) float64 {
	if fail.score <= 1 || pass.score <= 0 {
		return pass.achieved // the failing rung failed on errors, not load
	}
	f := math.Log(1/pass.score) / math.Log(fail.score/pass.score)
	return pass.rate + f*(fail.rate-pass.rate)
}

// fixedRates offers the mix at lowRate and highRate in alternating windows
// of length win and returns, per rate ("low", "high"), the p50 over all of
// its requests and the median of its windows' p99s, so that one slow spell
// of the box moves at most one window. If between is not nil, it runs after
// each pair of windows, while the server is idle.
func (r *serveRun) fixedRates(ctx context.Context, c *client, win time.Duration, between func() error) (p50, p99 map[string]float64, err error) {
	pooled := map[string][]float64{}
	p99s := map[string][]float64{}
	var late []float64
	for w := 0; w < fixedRateWindows; w++ {
		for _, lv := range []struct {
			name string
			rate float64
		}{{"low", lowRate}, {"high", highRate}} {
			ph := c.openLoop(ctx, r.mx.next(int(lv.rate*win.Seconds())), lv.rate, 5*time.Second)
			r.check(ph.samples)
			if ph.aborted {
				r.t.fail("%s rate %.0f/s: backlog passed 5 s, window aborted", lv.name, lv.rate)
			}
			lat := latencies(ph.samples)
			pooled[lv.name] = append(pooled[lv.name], lat...)
			p99s[lv.name] = append(p99s[lv.name], quantile(lat, 0.99))
			late = append(late, ph.lateMs...)
		}
		if between != nil {
			if err := between(); err != nil {
				return nil, nil, err
			}
		}
	}
	p50, p99 = map[string]float64{}, map[string]float64{}
	for name := range p99s {
		p50[name], p99[name] = median(pooled[name]), median(p99s[name])
		logf("serve: %s: %d requests, p50 %.2f ms, p99 per window %.2f ms", name, len(pooled[name]), p50[name], p99s[name])
	}
	logf("serve: generator late p99 %.2f ms", quantile(late, 0.99))
	return p50, p99, nil
}

// minWindow is the shortest fixed-rate window: at lowRate it holds 60
// requests.
const minWindow = 500 * time.Millisecond

// fixedRateWindow is the length of each fixed-rate window when left is the
// time that remains of the run: 85% of it shared among the windows of both
// rates, and at least minWindow.
func fixedRateWindow(left time.Duration) time.Duration {
	return max(time.Duration(float64(left)*0.85/(2*fixedRateWindows)), minWindow)
}

// runServeE2E measures the serve-mix workload untraced. Set-up is starting
// a server and warming its cache, three times before the first timed
// request. Then the two fixed rates run in alternating windows, and after
// each pair of windows come one closed-loop pass and one more set-up, so
// that pass_s and setup_s, the medians of those, sample the whole run. The
// last server set up before the windows serves the run's mix; every other
// set-up warms a server with the hot and inline instances of another seed
// and stops it, so that setup_s does not hang on one draw of instances.
func runServeE2E(ctx context.Context, cfg config, t *tally) (map[string]float64, error) {
	r, err := newServeRun(cfg, t)
	if err != nil {
		return nil, err
	}
	var setups []float64
	setup := func(mx *mix) (*server, *client, error) {
		t0 := time.Now()
		srv, c, err := r.setup(ctx, mx)
		setups = append(setups, time.Since(t0).Seconds())
		return srv, c, err
	}
	setupAgain := func() error {
		mx, err := newMix(setupSeed(cfg.seed, len(setups)))
		if err != nil {
			return err
		}
		srv, c, err := setup(mx)
		if err != nil {
			return err
		}
		c.close()
		return srv.stop()
	}
	for i := 0; i < 2; i++ {
		if err := setupAgain(); err != nil {
			return nil, err
		}
	}
	srv, c, err := setup(r.mx)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	defer c.close()
	start := time.Now()
	total := time.Duration(cfg.seconds) * time.Second

	var passes []float64
	between := func() error {
		s, d := c.closedLoop(ctx, r.mx.passReqs())
		r.check(s)
		passes = append(passes, d.Seconds())
		return setupAgain()
	}
	p50, _, err := r.fixedRates(ctx, c, fixedRateWindow(total-time.Since(start)), between)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{"setup_s": median(setups), "pass_s": median(passes)}
	for name, v := range p50 {
		out["p50_ms."+name] = v
	}
	hwm, err := vmHWM(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	out["peak_rss_mb"] = hwm
	c.close()
	if err := srv.stop(); err != nil {
		return nil, err
	}
	r.checkParity(ctx)
	logf("serve: %d of %d faulted responses left robots asleep", r.incomplete, r.faulted)
	return out, nil
}

// runServeLayers is the serve-mix part of a traced run: one server, warmed;
// the two fixed rates and the knee search, untraced, for the serve.* tail
// and knee figures; then the mix at the low rate with a sampled W3C
// traceparent on every other request. Server-Timing stages become spans and
// per-shape stage times; /metricsz deltas give the cache, shed, allocation
// and repair figures. obs.trace_overhead is the median round trip of the
// requests the server traced over that of the others in the same phase.
func runServeLayers(ctx context.Context, cfg config, t *tally, log *spanLog, out map[string]float64, d time.Duration) error {
	r, err := newServeRun(cfg, t)
	if err != nil {
		return err
	}
	srv, c, err := r.setup(ctx, r.mx)
	if err != nil {
		return err
	}
	defer srv.stop()
	defer c.close()
	// Tail latency and the knee, untraced: on a shared 2-vCPU box they vary
	// too much from run to run to gate on, so they are reported here.
	_, p99, err := r.fixedRates(ctx, c, d/fixedRateWindows, nil)
	if err != nil {
		return err
	}
	out["serve.p99_ms.low"], out["serve.p99_ms.high"] = p99["low"], p99["high"]
	out["serve.knee_qps"] = r.knee(ctx, c, 1400*time.Millisecond, time.Now().Add(3*d))
	c.traced = true
	m0, err := c.metricsz(ctx)
	if err != nil {
		return err
	}
	ph := c.openLoop(ctx, r.mx.next(int(lowRate*d.Seconds())), lowRate, 5*time.Second)
	m1, err := c.metricsz(ctx)
	if err != nil {
		return err
	}
	r.check(ph.samples)
	pid := srv.cmd.Process.Pid

	resolve, sim := map[string][]float64{}, map[string][]float64{}
	var queue, marshal, overhead, tripTraced, tripPlain []float64
	faulted, sampled := 0, 0
	for _, s := range ph.samples {
		sh := s.req.shape
		trip := float64(s.done.Sub(s.sent)) / float64(time.Millisecond)
		if s.sampled {
			sampled++
			tripTraced = append(tripTraced, trip)
		} else {
			tripPlain = append(tripPlain, trip)
		}
		resolve[sh] = append(resolve[sh], s.st.resolve)
		if s.st.outcome == "miss" {
			sim[sh] = append(sim[sh], s.st.sim)
			queue = append(queue, s.st.queue)
			marshal = append(marshal, s.st.marshal)
		}
		if sh == "faulted" {
			faulted++
		}
		overhead = append(overhead, trip-s.st.total)
		log.addOp(requestSpans(s, pid))
	}
	for _, sh := range serveShapes {
		out["service.resolve_ms."+sh] = median(resolve[sh])
		if len(sim[sh]) == 0 {
			sim[sh] = r.warmSim[sh] // hit shapes: the simulation their warm-up miss ran
		}
		out["service.sim_ms."+sh] = median(sim[sh])
	}
	out["service.queue_ms.p99"] = quantile(queue, 0.99)
	out["service.marshal_ms.p50"] = median(marshal)
	out["service.client_overhead_ms.p50"] = median(overhead)
	delta := func(name string) float64 { return m1[name] - m0[name] }
	out["obs.trace_overhead"] = median(tripTraced) / median(tripPlain)
	if kept := delta("dftp_traces_kept_total"); kept < float64(sampled) {
		t.fail("traced phase: the server kept %.0f traces for %d sampled requests", kept, sampled)
	}
	served := delta("dftp_cache_hits_total") + delta("dftp_cache_coalesced_total")
	out["service.hit_rate"] = served / (served + delta("dftp_cache_misses_total"))
	out["service.shed_rate"] = delta("dftp_shed_total") / (served + delta("dftp_cache_misses_total") + delta("dftp_shed_total"))
	n := float64(len(ph.samples))
	out["service.alloc_kb_per_req"] = delta("go_alloc_bytes_total") / n / 1024
	out["service.gc_per_kreq"] = delta("go_gc_cycles_total") / n * 1000
	out["service.cache_mb"] = m1["dftp_cache_bytes"] / (1 << 20)
	out["service.heap_inuse_mb"] = m1["go_heap_alloc_bytes"] / (1 << 20)
	out["sim.repairs_per_req.faulted"] = delta("dftp_repairs_total") / float64(max(faulted, 1))
	out["sim.incomplete_per_kreq.faulted"] = 1000 * float64(r.incomplete) / float64(max(r.faulted, 1))
	out["bench.late_ms.p99"] = quantile(ph.lateMs, 0.99)
	c.close()
	if err := srv.stop(); err != nil {
		return err
	}
	r.checkParity(ctx)
	return nil
}

// requestSpans turns one traced request into spans: the client's view
// (due to done), its wait for a connection, and the server's stages from
// Server-Timing laid end to end from the send time.
func requestSpans(s sample, serverPid int) []span {
	o := newOpSpans(s.traceID)
	root := o.add(s.req.path+" "+s.req.shape, "bench", -1, s.due, s.done.Sub(s.due))
	o.add("client.wait", "bench", root, s.due, s.sent.Sub(s.due))
	at := s.sent
	simLayer := "sim"
	if s.req.port != nil {
		simLayer = "portfolio"
	}
	for _, st := range []struct {
		name, layer string
		ms          float64
	}{{"resolve", "service", s.st.resolve}, {"queue", "service", s.st.queue}, {"sim", simLayer, s.st.sim}, {"marshal", "service", s.st.marshal}} {
		if st.ms <= 0 {
			continue
		}
		d := time.Duration(st.ms * float64(time.Millisecond))
		id := o.add("service."+st.name, st.layer, root, at, d)
		o.spans[id].Pid = serverPid
		at = at.Add(d)
	}
	for i := range o.spans {
		o.spans[i].Tid = s.conn + 1
	}
	return o.spans
}

// metricsz scrapes /metricsz and sums each metric family over its labels.
func (c *client) metricsz(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metricsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name, _, _ := strings.Cut(line[:i], "{")
		out[name] += v
	}
	return out, sc.Err()
}
