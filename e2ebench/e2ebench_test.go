package main

import (
	"errors"
	"io"
	"math"
	"testing"

	"mocc/scenario"
)

// TestShortWorkloads runs a short untraced and traced pass of every
// workload, so a broken benchmark fails `go test ./...`: every check must
// pass, no operation may fail, and every end-to-end and per-layer metric
// must be reported (run fails on a missing one) and finite.
func TestShortWorkloads(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			o := &options{workload: name, seed: 1, seconds: 0.4, trace: true, short: true,
				workdir: t.TempDir(), log: io.Discard}
			if testing.Verbose() {
				o.log = testLog{t}
			}
			res, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
			}
			if len(res.metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(res.metrics), len(perLayer))
			}
			for _, m := range res.metrics {
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) || m.value < 0 {
					t.Errorf("%s = %v", m.name, m.value)
				}
			}
		})
	}
}

// TestRunPhysicsRejects feeds the simulator checks results that break
// packet conservation and link capacity, and requires each to be caught.
func TestRunPhysicsRejects(t *testing.T) {
	spec, err := scenario.Generate("cellular", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(spec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRunPhysics(spec, res); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	for _, tc := range []struct {
		check  string
		mutate func(f *scenario.FlowResult)
	}{
		{"sim.conservation", func(f *scenario.FlowResult) { f.Lost = f.Sent - f.Delivered + 1 }},
		{"sim.link_capacity", func(f *scenario.FlowResult) { f.Delivered *= 100; f.Sent = f.Delivered + f.Lost }},
	} {
		bad := *res
		bad.Flows = append([]scenario.FlowResult(nil), res.Flows...)
		tc.mutate(&bad.Flows[0])
		var ce *checkError
		if err := checkRunPhysics(spec, &bad); !errors.As(err, &ce) || ce.check != tc.check {
			t.Errorf("mutated result: got %v, want check %s", err, tc.check)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.99); math.Abs(got-4.96) > 1e-12 {
		t.Errorf("p99 = %v, want 4.96", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %v, want NaN", got)
	}
}

// testLog routes the benchmark's progress lines to the test log.
type testLog struct{ t *testing.T }

func (w testLog) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
