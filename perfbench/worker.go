package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"time"

	"freezetag/internal/dftp"
	"freezetag/internal/diskgraph"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/service"
	"freezetag/internal/sim"
	"freezetag/internal/trace"
)

// Op modes. An op is one library-path solve of a solveCase.
const (
	modePlain  = "plain"  // generate → derive → SolveIn → marshal, untraced
	modeTraced = "traced" // the same op with the simulator's event recorder attached and spans kept
	modeLayers = "layers" // each layer's public entry point called and timed on its own
)

// opRequest is what the parent hands a worker process.
type opRequest struct {
	Mode string    `json:"mode"`
	Case solveCase `json:"case"`
	Seed int64     `json:"seed"`
	Op   string    `json:"op"` // span op id
}

// opResult is what a worker process reports back.
type opResult struct {
	Tag        string             `json:"tag"`
	OpMs       float64            `json:"opMs"`
	Digest     string             `json:"digest"`
	AllAwake   bool               `json:"allAwake"`
	Violations int                `json:"violations"`
	Err        string             `json:"err,omitempty"`
	Steps      int64              `json:"steps"`
	Looks      int64              `json:"looks"`
	Moves      int64              `json:"moves"`
	HWMMB      float64            `json:"hwmMB"`
	Layers     map[string]float64 `json:"layers,omitempty"` // ms per layer call (layers mode)
	Events     map[string]int64   `json:"events,omitempty"` // event totals by kind (traced mode)
	Spans      []span             `json:"spans,omitempty"`
}

// runOp executes one op in this process.
func runOp(ctx context.Context, req opRequest) opResult {
	out := opResult{Tag: req.Case.Tag}
	c := req.Case
	m, err := geom.ParseMetric(c.Metric)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	alg, err := service.AlgorithmByName(c.Alg)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	var sp *opSpans
	if req.Mode != modePlain {
		sp = newOpSpans(req.Op)
	}
	var rec *trace.Recorder
	var traceFn func(sim.Event)
	if req.Mode == modeTraced {
		rec = trace.New()
		traceFn = rec.Record
	}

	t0 := time.Now()
	root := sp.begin("op "+c.Tag, "bench", -1)
	s := sp.begin("instance.Family", "instance", root)
	inst, err := instance.Family(c.Family, c.N, c.Param, req.Seed)
	sp.end(s)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	var tup dftp.Tuple
	if req.Mode == modeLayers {
		// The parameters one at a time, then TupleForIn, which derives
		// all of them again (ξ included) to produce the same tuple.
		s = sp.begin("diskgraph.ConnectivityThresholdIn", "diskgraph", root)
		ell := diskgraph.ConnectivityThresholdIn(m, inst.Source, inst.Points)
		sp.end(s)
		s = sp.begin("geom.MaxDistFromGridIn", "diskgraph", root)
		geom.MaxDistFromGridIn(m, inst.Source, inst.Points)
		sp.end(s)
		s = sp.begin("diskgraph.XiAtIn", "diskgraph", root)
		diskgraph.XiAtIn(m, inst.Source, inst.Points, ell)
		sp.end(s)
		s = sp.begin("dftp.TupleForIn", "dftp", root)
		tup = dftp.TupleForIn(m, inst)
		sp.end(s)
	} else {
		s = sp.begin("instance.ParamsIn", "diskgraph", root)
		tup = dftp.TupleFromParams(inst.ParamsIn(m))
		sp.end(s)
	}
	s = sp.begin("instance.HashRequestIn", "instance", root)
	hash := instance.HashRequestIn(m, alg.Name(), inst, tup.Ell, tup.Rho, tup.N, 0)
	sp.end(s)
	s = sp.begin("dftp.SolveIn", "sim", root)
	res, rep, err := dftp.SolveIn(ctx, m, alg, inst, tup, 0, traceFn)
	sp.end(s)
	if err != nil {
		out.Err = err.Error()
	}
	s = sp.begin("service.NewSolveResponse+json.Marshal", "service", root)
	body, merr := json.Marshal(service.NewSolveResponse(hash, alg, m, inst, tup, 0, res, rep))
	sp.end(s)
	sp.end(root)
	out.OpMs = msSince(t0)
	if merr != nil && out.Err == "" {
		out.Err = merr.Error()
	}

	sum := sha256.Sum256(body)
	out.Digest = hex.EncodeToString(sum[:8])
	out.AllAwake, out.Violations = res.AllAwake, len(res.Violations)
	out.Steps, out.Looks, out.Moves = res.Steps, res.Looks, res.Moves
	if sp != nil {
		out.Spans = sp.spans
	}
	if req.Mode == modeLayers {
		names := map[string]string{
			"instance.Family": "gen_ms", "diskgraph.ConnectivityThresholdIn": "ell_ms",
			"geom.MaxDistFromGridIn": "rho_ms", "diskgraph.XiAtIn": "xi_ms", "dftp.TupleForIn": "tuple_ms",
			"instance.HashRequestIn": "hash_ms", "dftp.SolveIn": "solve_ms",
		}
		out.Layers = map[string]float64{}
		for _, s := range sp.spans {
			if k, ok := names[s.Name]; ok {
				out.Layers[k] = float64(s.Dur) / 1e6
			}
		}
	}
	if rec != nil {
		out.Events = map[string]int64{}
		for _, ev := range rec.Events() {
			out.Events[ev.Kind]++
		}
	}
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// workerMain is the entry point of a worker process: it runs the op given
// as its JSON argument, adds its resident-set high-water mark, and prints
// the result as one JSON line. A fresh process per op makes VmHWM that op's
// own peak.
func workerMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "perfbench worker: want one JSON op argument")
		return 2
	}
	var req opRequest
	if err := json.Unmarshal([]byte(args[0]), &req); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 2
	}
	out := runOp(context.Background(), req)
	hwm, err := vmHWM(0)
	if err != nil && out.Err == "" {
		out.Err = err.Error()
	}
	out.HWMMB = hwm
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	return 0
}

// spawnOp runs one op in a fresh worker process and returns its result. A
// worker that fails to start or report yields a result carrying the error.
func spawnOp(ctx context.Context, req opRequest) opResult {
	arg, err := json.Marshal(req)
	if err != nil {
		return opResult{Tag: req.Case.Tag, Err: err.Error()}
	}
	self, err := os.Executable()
	if err != nil {
		return opResult{Tag: req.Case.Tag, Err: err.Error()}
	}
	cmd := exec.CommandContext(ctx, self, "worker", string(arg))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return opResult{Tag: req.Case.Tag, Err: fmt.Sprintf("worker: %v", err)}
	}
	var out opResult
	if err := json.Unmarshal(stdout, &out); err != nil {
		return opResult{Tag: req.Case.Tag, Err: fmt.Sprintf("worker output: %v", err)}
	}
	return out
}
