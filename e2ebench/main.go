// Command e2ebench is the repository's end-to-end benchmark. It runs one of
// three workloads that together exercise every module, checks the
// program's outputs, and prints one JSON result as its last line:
//
//	serve-udp  the mocc-serve daemon over loopback UDP (transport, datapath,
//	           RateServer, the serving engine, batched core inference)
//	lifecycle  the embedded library: offline training, in-process
//	           App.Report, then OnlineAdapt while live apps report
//	sim-suite  generated scenarios of every family through scenario.Run on
//	           the netsim and topo engines
//
// Usage (from the repository root; e2ebench/run.sh builds and runs it):
//
//	e2ebench --workload serve-udp --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// the workload runs twice, untraced then traced, and the result holds the
// per-layer metrics; the run also prints each layer's self time and the
// tracing overhead of every end-to-end metric, and writes the recorded
// spans to .bench_build/. See README.md for the metric definitions.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"

	"mocc/scenario"
)

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workdir holds the model copies and span dumps of the run.
	workdir string
	// short shrinks every workload to a smoke run (the package test).
	short bool
	log   io.Writer
}

// metric is one reported figure. n is the sample count behind a
// percentile or median (0 when the figure is not a statistic).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// outcome is what one pass of a workload measured.
type outcome struct {
	attempted, failed int64
	e2e               []metric
	// info holds figures printed beside the end-to-end metrics but left
	// out of the result: tail latencies, which CPU stalls of the host can
	// move by several times between runs of the same seed.
	info  []metric
	layer []metric
	// modelPath is a saved copy of the workload's model, for the layer
	// replays of the traced run ("" when the workload trains none).
	modelPath string
	// batchMean is the serving engine's mean batch size, when measured.
	batchMean float64
	// specs is the sim-suite's scenario set, replayed layer by layer.
	specs []*scenario.Spec
}

func (o *outcome) addE2E(name, unit string, v float64, n int) {
	o.e2e = append(o.e2e, metric{name, unit, v, n})
}

func (o *outcome) addInfo(name, unit string, v float64, n int) {
	o.info = append(o.info, metric{name, unit, v, n})
}

func (o *outcome) addLayer(name, unit string, v float64, n int) {
	o.layer = append(o.layer, metric{name, unit, v, n})
}

func (o *outcome) hasLayer(name string) bool {
	return slices.ContainsFunc(o.layer, func(m metric) bool { return m.name == name })
}

// endToEnd lists the end-to-end metrics every workload reports; see
// README.md for what each one measures on each workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"rate_per_s", "1/s"},
	{"work_s", "s"},
}

// perLayer lists the per-layer metrics every traced run reports.
var perLayer = []struct{ name, unit string }{
	{"transport.flow_report_us.p50", "us"},
	{"transport.flow_report_us.p99", "us"},
	{"transport.timeouts", "count"},
	{"transport.retries", "count"},
	{"transport.fallbacks", "count"},
	{"transport.daemon_dropped", "count"},
	{"kernel.udp_rcvbuf_errors", "count"},
	{"datapath.codec_ns", "ns"},
	{"serve.batch_size_mean", "count"},
	{"serve.decision_latency_us.p50", "us"},
	{"serve.decision_latency_us.p99", "us"},
	{"serve.shed", "count"},
	{"mocc.report_serving_us.p50", "us"},
	{"mocc.report_serving_us.p99", "us"},
	{"mocc.report_direct_us.p50", "us"},
	{"mocc.report_direct_us.p99", "us"},
	{"core.act_us", "us"},
	{"core.act_batch_us_per_sample", "us"},
	{"rl.update_s", "s"},
	{"rl.collect_s", "s"},
	{"train.env_steps", "count"},
	{"gym.step_ns", "ns"},
	{"mocc.adapt_iter_ms", "ms"},
	{"scenario.compile_ms", "ms"},
	{"netsim.mpkts_s", "Mpkts/s"},
	{"netsim.allocs_per_kpkt", "count"},
	{"topo.mpkts_s.incast-10k", "Mpkts/s"},
	{"topo.mpkts_s.parking-lot", "Mpkts/s"},
	{"topo.allocs_per_kpkt", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
}

// workloads maps each workload name to its runner. A runner measures one
// pass; with a non-nil tracer it also records spans and fills the layer
// metrics its own phases produce.
var workloads = map[string]func(o *options, tr *tracer) (*outcome, error){
	"serve-udp": runServe,
	"lifecycle": runLifecycle,
	"sim-suite": runSimSuite,
}

// checkError is a failed correctness check; the run exits non-zero and
// names it.
type checkError struct {
	check  string
	detail string
}

func (e *checkError) Error() string { return "check " + e.check + " failed: " + e.detail }

func failCheck(check, format string, args ...any) error {
	return &checkError{check: check, detail: fmt.Sprintf(format, args...)}
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: serve-udp | lifecycle | sim-suite")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured seconds per pass")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs untraced then traced and reports the per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	o.log = os.Stdout
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if o.seconds <= 0 {
		fatalf("--seconds must be positive, got %v", o.seconds)
	}
	if _, ok := workloads[o.workload]; !ok {
		fatalf("unknown --workload %q (want serve-udp, lifecycle or sim-suite)", o.workload)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatalf("work directory: %v", err)
	}
	wd, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fatalf("work directory: %v", err)
	}
	o.workdir = wd
	res, err := run(&o)
	os.RemoveAll(wd)
	if err != nil {
		fatalf("%v", err)
	}
	if o.trace {
		// The span dump outlives the run's work directory.
		if err := res.spans.dump(filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))); err != nil {
			fatalf("writing spans: %v", err)
		}
	}
	printResult(os.Stdout, res)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(1)
}

// result is one invocation's output.
type result struct {
	attempted, failed int64
	metrics           []metric
	spans             *tracer
}

// run executes the invocation: one untraced pass, plus (with --trace 1) a
// traced pass and the layer replays.
func run(o *options) (*result, error) {
	printContext(o)
	runner := workloads[o.workload]
	base, err := runner(o, nil)
	if err != nil {
		return nil, err
	}
	e2e, err := pick(base.e2e, endToEnd)
	if err != nil {
		return nil, err
	}
	printMetrics(o.log, "end-to-end", e2e)
	printMetrics(o.log, "tail (printed only)", base.info)
	if !o.trace {
		return &result{attempted: base.attempted, failed: base.failed, metrics: e2e}, nil
	}
	tr := newTracer()
	traced, err := runner(o, tr)
	if err != nil {
		return nil, err
	}
	tracedE2E, err := pick(traced.e2e, endToEnd)
	if err != nil {
		return nil, err
	}
	printMetrics(o.log, "end-to-end (traced)", tracedE2E)
	if err := replayLayers(o, tr, traced); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "tracing overhead (traced minus untraced pass):\n")
	for i, m := range e2e {
		t := tracedE2E[i]
		fmt.Fprintf(o.log, "  overhead %-10s untraced %.6g traced %.6g delta %+.6g %s (%+.1f%%)\n",
			m.name, m.value, t.value, t.value-m.value, m.unit, 100*(t.value-m.value)/m.value)
	}
	tr.writeSelfTimes(o.log)
	layers, err := pick(traced.layer, perLayer)
	if err != nil {
		return nil, err
	}
	printMetrics(o.log, "per-layer", layers)
	return &result{
		attempted: base.attempted + traced.attempted,
		failed:    base.failed + traced.failed,
		metrics:   layers,
		spans:     tr,
	}, nil
}

// pick returns the wanted metrics from ms, in the wanted order and units;
// a missing one is an error.
func pick(ms []metric, want []struct{ name, unit string }) ([]metric, error) {
	out := make([]metric, 0, len(want))
	for _, w := range want {
		i := slices.IndexFunc(ms, func(m metric) bool { return m.name == w.name })
		if i < 0 {
			return nil, fmt.Errorf("the run produced no %s", w.name)
		}
		m := ms[i]
		m.unit = w.unit
		out = append(out, m)
	}
	return out, nil
}

// printContext prints the run context every output carries.
func printContext(o *options) {
	fmt.Fprintf(o.log, "e2ebench workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(o.log, "context cpus %d GOMAXPROCS %d go %s %s/%s commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit())
}

// commit identifies the code under test: the VCS revision stamped into the
// binary when built inside a git checkout, otherwise a digest of the
// module's Go sources and go.mod.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s metrics:\n", title)
	for _, m := range ms {
		if m.n > 0 {
			fmt.Fprintf(w, "  metric %-32s %14.6g %-8s n=%d\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Fprintf(w, "  metric %-32s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
}

// printResult writes the result object as the last line of stdout.
func printResult(w io.Writer, r *result) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fatalf("metric %s is not finite: %v", m.name, v)
		}
		ms[m.name] = val{v, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{true, r.attempted, r.failed, ms})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Fprintf(w, "%s\n", b)
}
