package diskgraph

import (
	"math"
	"math/rand"
	"testing"

	"freezetag/internal/geom"
)

// gridOracleMetrics are the metric spellings the ISSUE pins for the
// grid-vs-dense cross-check: the three named metrics, a fractional ℓp, and
// the integer-exponent ℓp fast path.
func gridOracleMetrics(t *testing.T) []geom.Metric {
	t.Helper()
	ms := []geom.Metric{geom.L1, geom.L2, geom.LInf}
	for _, p := range []float64{2.5, 3} {
		m, err := geom.Lp(p)
		if err != nil {
			t.Fatalf("Lp(%g): %v", p, err)
		}
		ms = append(ms, m)
	}
	return ms
}

// bottleneckInstances generates point sets across the shapes the grid pass
// must stay exact on: uniform spreads, tight clusters joined by long
// bottleneck edges, walks, collinear sets, and duplicated points. Sizes
// straddle denseBottleneckCutoff so both dispatch arms run.
func bottleneckInstances(rng *rand.Rand) [][]geom.Point {
	var out [][]geom.Point
	for _, n := range []int{0, 1, 2, denseBottleneckCutoff - 1, denseBottleneckCutoff + 5, 300} {
		uniform := make([]geom.Point, n)
		for i := range uniform {
			uniform[i] = geom.Pt(rng.Float64()*40-20, rng.Float64()*40-20)
		}
		out = append(out, uniform)
	}
	clustered := make([]geom.Point, 0, 240)
	for c := 0; c < 4; c++ {
		cx, cy := rng.Float64()*500-250, rng.Float64()*500-250
		for i := 0; i < 60; i++ {
			clustered = append(clustered, geom.Pt(cx+rng.Float64(), cy+rng.Float64()))
		}
	}
	out = append(out, clustered)
	walk := make([]geom.Point, 200)
	x, y := 0.0, 0.0
	for i := range walk {
		x += (rng.Float64() - 0.5) * 2
		y += (rng.Float64() - 0.5) * 2
		walk[i] = geom.Pt(x, y)
	}
	out = append(out, walk)
	line := make([]geom.Point, 150)
	for i := range line {
		line[i] = geom.Pt(float64(i)*1.3, 0)
	}
	out = append(out, line)
	dup := make([]geom.Point, 120)
	for i := range dup {
		dup[i] = geom.Pt(float64(i%9), float64(i%6))
	}
	out = append(out, dup)
	return out
}

// The grid-accelerated ℓ* must equal the dense-Prim ℓ* exactly — not within
// a tolerance: the value feeds request hashes. The bottleneck weight of the
// float edge graph is algorithm-independent, and both passes evaluate the
// same bitwise-symmetric Dist calls, so any inequality here is a bug.
func TestConnectivityThresholdGridMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, m := range gridOracleMetrics(t) {
		for trial, pts := range bottleneckInstances(rng) {
			src := geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5)
			got := ConnectivityThresholdIn(m, src, pts)
			want := ConnectivityThresholdDenseIn(m, src, pts)
			if got != want {
				t.Errorf("%s instance %d (n=%d): grid ℓ* = %x, dense ℓ* = %x",
					m.Name(), trial, len(pts), got, want)
			}
		}
	}
}

// Fuzz the grid pass on random instance sizes and scales; every value must
// match the dense oracle bit for bit.
func TestConnectivityThresholdGridFuzzed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	metrics := gridOracleMetrics(t)
	for i := 0; i < 120; i++ {
		m := metrics[i%len(metrics)]
		n := denseBottleneckCutoff + rng.Intn(150)
		scale := math.Pow(10, float64(rng.Intn(6)-2))
		pts := make([]geom.Point, n)
		for j := range pts {
			pts[j] = geom.Pt((rng.Float64()-0.5)*scale, (rng.Float64()-0.5)*scale)
		}
		if rng.Intn(2) == 0 {
			pts[n-1] = geom.Pt(scale*100, scale*100) // far outlier: ℓ* is its edge
		}
		got := ConnectivityThresholdIn(m, geom.Origin, pts)
		want := ConnectivityThresholdDenseIn(m, geom.Origin, pts)
		if got != want {
			t.Fatalf("%s n=%d scale=%g: grid ℓ* = %x, dense ℓ* = %x", m.Name(), n, scale, got, want)
		}
	}
}

// ComputeParamsIn shares one vertex slice and one δ-ball graph across the
// derivation; its three outputs must equal the independent derivations the
// callers used to run — exactly, since ℓ* and ρ* feed request hashes.
func TestComputeParamsSharedDerivationExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, m := range gridOracleMetrics(t) {
		for trial, pts := range bottleneckInstances(rng) {
			src := geom.Pt(rng.Float64()*4-2, rng.Float64()*4-2)
			p := ComputeParamsIn(m, src, pts)
			if want := ConnectivityThresholdDenseIn(m, src, pts); p.Ell != want {
				t.Errorf("%s instance %d: shared Ell = %x, dense = %x", m.Name(), trial, p.Ell, want)
			}
			if want := geom.MaxDistFromIn(m, src, pts); p.Rho != want {
				t.Errorf("%s instance %d: shared Rho = %x, dense = %x", m.Name(), trial, p.Rho, want)
			}
			if want := XiAtIn(m, src, pts, p.Ell); p.Xi != want {
				t.Errorf("%s instance %d: shared Xi = %x, independent = %x", m.Name(), trial, p.Xi, want)
			}
			if p.N != len(pts) {
				t.Errorf("%s instance %d: N = %d, want %d", m.Name(), trial, p.N, len(pts))
			}
		}
	}
}

// Coincident and degenerate inputs must keep the dense pass's exact
// behavior through the dispatch.
func TestConnectivityThresholdGridDegenerate(t *testing.T) {
	same := make([]geom.Point, 200)
	for i := range same {
		same[i] = geom.Pt(2, 3)
	}
	if got := ConnectivityThresholdIn(nil, geom.Pt(2, 3), same); got != 0 {
		t.Errorf("coincident ℓ* = %v, want 0", got)
	}
	// A coincident cloud with one far point: ℓ* is exactly that edge.
	pts := append(append([]geom.Point(nil), same...), geom.Pt(102, 3))
	got := ConnectivityThresholdIn(nil, geom.Pt(2, 3), pts)
	if want := ConnectivityThresholdDenseIn(nil, geom.Pt(2, 3), pts); got != want {
		t.Errorf("cloud+outlier ℓ* = %x, dense = %x", got, want)
	}
	nan := make([]geom.Point, 150)
	for i := range nan {
		nan[i] = geom.Pt(float64(i), 0)
	}
	nan[75] = geom.Pt(math.NaN(), 0)
	gotNaN := ConnectivityThresholdIn(nil, geom.Origin, nan)
	wantNaN := ConnectivityThresholdDenseIn(nil, geom.Origin, nan)
	if gotNaN != wantNaN && !(math.IsNaN(gotNaN) && math.IsNaN(wantNaN)) {
		t.Errorf("NaN input ℓ* = %v, dense = %v", gotNaN, wantNaN)
	}
}

// A finite-but-subnormal coordinate spread underflows the grid cell size;
// the dispatch must fall back to the dense pass instead of building a
// degenerate lattice (int32 overflow on some platforms).
func TestConnectivityThresholdSubnormalExtent(t *testing.T) {
	pts := make([]geom.Point, 150)
	for i := range pts {
		pts[i] = geom.Pt(float64(i)*5e-324, 0)
	}
	got := ConnectivityThresholdIn(nil, geom.Origin, pts)
	want := ConnectivityThresholdDenseIn(nil, geom.Origin, pts)
	if got != want {
		t.Fatalf("subnormal extent ℓ* = %x, dense = %x", got, want)
	}
}
