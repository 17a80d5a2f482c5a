package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mocc"
	"mocc/internal/core"
	"mocc/internal/datapath"
	"mocc/internal/netsim"
	"mocc/internal/objective"
	"mocc/internal/topo"
	"mocc/internal/trace"
	"mocc/scenario"
	"mocc/transport"
)

// replayLayers runs the layer-isolating replays of a traced run: each
// calls one layer's public functions alone, on inputs generated from the
// workload seed, and fills every per-layer metric the workload's own
// phases did not. They run only in traced runs, after the measured
// passes, so they never disturb the end-to-end figures.
func replayLayers(o *options, tr *tracer, out *outcome) error {
	rec := tr.recorder(0)
	rec.begin("bench.replay", 0)
	defer rec.end()

	if out.modelPath == "" {
		// The workload trains no model: train the served one.
		opts := mocc.QuickTraining()
		opts.Seed = o.seed
		t, err := train(opts, rec)
		if err != nil {
			return fmt.Errorf("replay: training: %w", err)
		}
		out.modelPath = filepath.Join(o.workdir, "replay-model.json")
		if err := t.model.Save(out.modelPath); err != nil {
			return fmt.Errorf("replay: saving model: %w", err)
		}
		if !out.hasLayer("rl.update_s") {
			t.addLayers(out)
		}
	}
	if !out.hasLayer("transport.flow_report_us.p50") {
		if err := replayTransport(o, tr, out); err != nil {
			return err
		}
	}
	if err := replayCodec(o, rec, out); err != nil {
		return err
	}
	for _, serving := range []bool{true, false} {
		name := "mocc.report_direct_us"
		if serving {
			name = "mocc.report_serving_us"
		}
		if out.hasLayer(name + ".p50") {
			continue
		}
		if err := replayReports(o, tr, out, serving); err != nil {
			return err
		}
	}
	obsRows := replayGym(o, rec, out)
	if err := replayInference(rec, out, obsRows); err != nil {
		return err
	}
	if !out.hasLayer("mocc.adapt_iter_ms") {
		if err := replayAdapt(o, rec, out); err != nil {
			return err
		}
	}
	return replaySimulators(o, rec, out)
}

// replayTransport serves a short closed loop through an in-process daemon
// (the serve-udp wiring) for workloads that open no socket of their own.
func replayTransport(o *options, tr *tracer, out *outcome) error {
	model, err := mocc.LoadModelFile(out.modelPath)
	if err != nil {
		return fmt.Errorf("replay: loading model: %w", err)
	}
	rcv0, rcvOK := udpRcvbufErrors()
	d, err := startDaemon(model)
	if err != nil {
		return err
	}
	defer d.close()
	conn, err := transport.DialServe(d.srv.Addr(), transport.ServeConnConfig{})
	if err != nil {
		return fmt.Errorf("replay: dial: %w", err)
	}
	defer conn.Close()
	const flows, reports = 16, 64
	var wg sync.WaitGroup
	stats := make([]transport.ServeFlowStats, flows)
	for i := 0; i < flows; i++ {
		rec := tr.recorder(0)
		frng := rand.New(rand.NewSource(o.seed*7919 + int64(i)))
		sf := conn.Flow(uint64(i+1), randomPref(frng), flowFailover)
		gen := newStatusGen(o.seed*1_000_003 + int64(i+1))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var prev transport.ServeFlowStats
			for k := 0; k < reports; k++ {
				servedReport(sf, &prev, gen.next(), rec, uint64(i+1)<<32|uint64(k))
			}
			stats[i] = sf.Stats()
		}(i)
	}
	wg.Wait()
	var agg transport.ServeFlowStats
	for _, st := range stats {
		agg.Timeouts += st.Timeouts
		agg.Retries += st.Retries
		agg.Fallbacks += st.Fallbacks
	}
	addLayerPercentiles(out, "transport.flow_report_us", "us", tr.durations("transport.ServeFlow.Report"))
	out.addLayer("transport.timeouts", "count", float64(agg.Timeouts), 0)
	out.addLayer("transport.retries", "count", float64(agg.Retries), 0)
	out.addLayer("transport.fallbacks", "count", float64(agg.Fallbacks), 0)
	out.addLayer("transport.daemon_dropped", "count", float64(d.srv.Stats().Dropped), 0)
	addKernelDrops(o, out, rcv0, rcvOK)
	addServeLayers(out, d)
	ss := d.lib.ServingStats()
	out.batchMean = float64(ss.Reports) / float64(max(ss.Batches, 1))
	return nil
}

// addKernelDrops reports the UDP receive-buffer drops since rcv0.
func addKernelDrops(o *options, out *outcome, rcv0 int64, ok0 bool) {
	rcv1, ok1 := udpRcvbufErrors()
	if !ok0 || !ok1 {
		fmt.Fprintf(o.log, "note: /proc/net/snmp is not readable; kernel.udp_rcvbuf_errors reads 0\n")
		out.addLayer("kernel.udp_rcvbuf_errors", "count", 0, 0)
		return
	}
	out.addLayer("kernel.udp_rcvbuf_errors", "count", float64(rcv1-rcv0), 0)
}

// replayCodec times Encode/Decode of a report and its rate over the
// statuses the serve-udp flows send, and checks each round trip.
func replayCodec(o *options, rec *recorder, out *outcome) error {
	var reps []datapath.WireReport
	for id := 1; id <= 64; id++ {
		gen := newStatusGen(o.seed*1_000_003 + int64(id))
		for k := 0; k < 64; k++ {
			st := gen.next()
			reps = append(reps, datapath.WireReport{
				Flow: uint64(id), Thr: 0.5, Lat: 0.3, Loss: 0.2,
				DurationNs: st.Duration.Nanoseconds(), Sent: st.PacketsSent, Acked: st.PacketsAcked,
				Lost: st.PacketsLost, AvgRTTNs: st.AvgRTT.Nanoseconds(), MinRTTNs: st.MinRTT.Nanoseconds(),
			})
		}
	}
	rp := make([]byte, datapath.WireReportBytes)
	ra := make([]byte, datapath.WireRateBytes)
	const rounds = 50
	bad := 0
	rec.begin("datapath.codec", 0)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i, rep := range reps {
			datapath.EncodeReport(rp, uint64(i), int64(i), rep)
			seq, nanos, got, ok := datapath.DecodeReport(rp)
			datapath.EncodeRate(ra, seq, nanos, got.Flow, got.Sent, uint64(r))
			_, _, flow, rate, _, ok2 := datapath.DecodeRate(ra)
			if !ok || !ok2 || got != rep || flow != rep.Flow || rate != rep.Sent {
				bad++
			}
		}
	}
	el := time.Since(start)
	rec.end()
	if bad > 0 {
		return failCheck("datapath.round_trip", "%d of %d report/rate round trips did not decode to what was encoded", bad, rounds*len(reps))
	}
	n := rounds * len(reps)
	out.addLayer("datapath.codec_ns", "ns", float64(el.Nanoseconds())/float64(n), n)
	return nil
}

// replayReports runs App.Report in process at the closed-loop concurrency
// of serve-udp, on a serving library (the daemon's options) or a plain one.
func replayReports(o *options, tr *tracer, out *outcome, serving bool) error {
	model, err := mocc.LoadModelFile(out.modelPath)
	if err != nil {
		return fmt.Errorf("replay: loading model: %w", err)
	}
	name, metricName := "mocc.App.Report.direct", "mocc.report_direct_us"
	var opts []mocc.Option
	if serving {
		name, metricName = "mocc.App.Report.serving", "mocc.report_serving_us"
		opts = append(opts, mocc.WithServing(daemonOptions()))
	}
	lib, err := mocc.New(model, opts...)
	if err != nil {
		return fmt.Errorf("replay: library: %w", err)
	}
	defer lib.Close()
	const apps, reports = 64, 200
	var wg sync.WaitGroup
	errs := make([]error, apps)
	for i := 0; i < apps; i++ {
		frng := rand.New(rand.NewSource(o.seed*7919 + int64(1_000_000+i)))
		app, err := lib.Register(randomPref(frng))
		if err != nil {
			return fmt.Errorf("replay: register: %w", err)
		}
		gen := newStatusGen(o.seed*1_000_003 + int64(1_000_000+i))
		rec := tr.recorder(0)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < reports; k++ {
				rec.begin(name, uint64(i)<<32|uint64(k))
				_, err := app.Report(gen.next())
				rec.end()
				if err != nil && errs[i] == nil {
					errs[i] = err
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("replay: %s: %w", name, err)
		}
	}
	addLayerPercentiles(out, metricName, "us", tr.durations(name))
	return nil
}

// replayGym steps training-distribution environments at seeded random
// actions and returns a sample of the observations they produced.
func replayGym(o *options, rec *recorder, out *outcome) [][]float64 {
	envs := core.TrainingEnvs(trace.TrainingRanges(), core.HistoryLen)
	rng := rand.New(rand.NewSource(o.seed))
	const steps, episode = 50_000, 200
	var obsRows [][]float64
	var env = envs(rng.Int63())
	rec.begin("gym.Env.Step", 0)
	start := time.Now()
	for i := 0; i < steps; i++ {
		if i%episode == 0 && i > 0 {
			env = envs(rng.Int63())
		}
		env.ApplyAction(rng.NormFloat64())
		obs, _ := env.Step()
		if i%97 == 0 {
			obsRows = append(obsRows, append([]float64(nil), obs...))
		}
	}
	el := time.Since(start)
	rec.end()
	out.addLayer("gym.step_ns", "ns", float64(el.Nanoseconds())/steps, steps)
	return obsRows
}

// replayInference times single-sample ActFor and batched ActBatch at the
// serving engine's measured mean batch size.
func replayInference(rec *recorder, out *outcome, obsRows [][]float64) error {
	m, err := loadCoreModel(out.modelPath)
	if err != nil {
		return err
	}
	ws := objective.UniformObjectives(len(obsRows), 1)
	inf := m.NewInference()
	const calls = 20_000
	var sink float64
	rec.begin("core.Inference.ActFor", 0)
	start := time.Now()
	for i := 0; i < calls; i++ {
		sink += inf.ActFor(ws[i%len(ws)], obsRows[i%len(obsRows)])
	}
	el := time.Since(start)
	rec.end()
	out.addLayer("core.act_us", "us", float64(el.Nanoseconds())/1e3/calls, calls)

	b := int(out.batchMean + 0.5)
	b = min(max(b, 1), len(obsRows))
	bi := m.NewBatchInference()
	acts := make([]float64, b)
	batches := max(calls/b, 1)
	rec.begin("core.BatchInference.ActBatch", 0)
	start = time.Now()
	for i := 0; i < batches; i++ {
		off := (i * b) % (len(obsRows) - b + 1)
		bi.ActBatch(ws[off:off+b], obsRows[off:off+b], acts)
		sink += acts[0]
	}
	el = time.Since(start)
	rec.end()
	out.addLayer("core.act_batch_us_per_sample", "us", float64(el.Nanoseconds())/1e3/float64(batches*b), batches*b)
	if sink != sink {
		return fmt.Errorf("replay: non-finite inference output")
	}
	return nil
}

// replayAdapt times a few OnlineAdapt iterations on a plain library.
func replayAdapt(o *options, rec *recorder, out *outcome) error {
	model, err := mocc.LoadModelFile(out.modelPath)
	if err != nil {
		return fmt.Errorf("replay: loading model: %w", err)
	}
	adapt := mocc.DefaultAdaptation()
	adapt.Seed = o.seed
	lib, err := mocc.New(model, mocc.WithAdaptation(adapt))
	if err != nil {
		return fmt.Errorf("replay: library: %w", err)
	}
	for _, w := range lifecyclePrefs(o.seed, 8) {
		if _, err := lib.Register(w); err != nil {
			return fmt.Errorf("replay: register: %w", err)
		}
	}
	const iters = 3
	rec.begin("mocc.Library.OnlineAdapt", 0)
	start := time.Now()
	_, err = lib.OnlineAdapt(unseenObjective, iters)
	el := time.Since(start)
	rec.end()
	if err != nil {
		return fmt.Errorf("replay: OnlineAdapt: %w", err)
	}
	out.addLayer("mocc.adapt_iter_ms", "ms", ms(el)/iters, iters)
	return nil
}

// replaySimulators compiles the scenario set (the sim-suite's own, or one
// generated spec per family) and runs each compiled network alone on its
// engine, counting allocations around Run.
func replaySimulators(o *options, rec *recorder, out *outcome) error {
	specs := out.specs
	if specs == nil {
		for _, f := range scenario.AllFamilies() {
			spec, err := scenario.Generate(f, o.seed*1000)
			if err != nil {
				return fmt.Errorf("replay: generating %s: %w", f, err)
			}
			specs = append(specs, spec)
		}
	}
	var compile time.Duration
	var netPkts, netMallocs uint64
	var netWall time.Duration
	topoPkts := map[string]float64{}
	topoWall := map[string]time.Duration{}
	var topoAllPkts, topoMallocs uint64
	var ms0, ms1 runtime.MemStats
	for _, spec := range specs {
		if !spec.Topology() {
			rec.begin("scenario.Spec.Compile", 0)
			t := time.Now()
			c, err := spec.Compile(scenario.CompileOptions{})
			compile += time.Since(t)
			rec.end()
			if err != nil {
				return fmt.Errorf("replay: compiling %s: %w", spec.Name, err)
			}
			n := netsim.NewNetwork(c.Link, spec.Seed)
			for _, cfg := range c.Flows {
				n.AddFlow(cfg)
			}
			runtime.ReadMemStats(&ms0)
			rec.begin("netsim.Network.Run", 0)
			t = time.Now()
			n.Run(c.Duration)
			netWall += time.Since(t)
			rec.end()
			runtime.ReadMemStats(&ms1)
			netMallocs += ms1.Mallocs - ms0.Mallocs
			for _, f := range n.Flows {
				netPkts += uint64(f.SentTotal)
			}
			continue
		}
		rec.begin("scenario.Spec.CompileTopo", 0)
		t := time.Now()
		c, err := spec.CompileTopo(scenario.CompileOptions{})
		compile += time.Since(t)
		rec.end()
		if err != nil {
			return fmt.Errorf("replay: compiling %s: %w", spec.Name, err)
		}
		e := topo.NewEngine(c.Topo, spec.Seed)
		for _, cfg := range c.Flows {
			e.AddFlow(cfg)
		}
		runtime.ReadMemStats(&ms0)
		rec.begin("topo.Engine.Run", 0)
		t = time.Now()
		e.Run(c.Duration)
		topoWall[spec.Family] += time.Since(t)
		rec.end()
		runtime.ReadMemStats(&ms1)
		topoMallocs += ms1.Mallocs - ms0.Mallocs
		var pk uint64
		for _, f := range e.Flows {
			pk += uint64(f.SentTotal)
		}
		topoPkts[spec.Family] += float64(pk)
		topoAllPkts += pk
	}
	out.addLayer("scenario.compile_ms", "ms", ms(compile)/float64(len(specs)), len(specs))
	out.addLayer("netsim.mpkts_s", "Mpkts/s", float64(netPkts)/netWall.Seconds()/1e6, int(netPkts))
	out.addLayer("netsim.allocs_per_kpkt", "count", float64(netMallocs)/(float64(netPkts)/1e3), int(netPkts))
	for _, f := range scenario.TopoFamilies() {
		fam := string(f)
		if topoWall[fam] == 0 {
			return fmt.Errorf("replay: no %s scenario ran", fam)
		}
		out.addLayer("topo.mpkts_s."+fam, "Mpkts/s", topoPkts[fam]/topoWall[fam].Seconds()/1e6, int(topoPkts[fam]))
	}
	out.addLayer("topo.allocs_per_kpkt", "count", float64(topoMallocs)/(float64(topoAllPkts)/1e3), int(topoAllPkts))
	return nil
}
