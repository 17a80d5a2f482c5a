package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mocc"
	"mocc/internal/cc"
	"mocc/internal/datapath"
	"mocc/transport"
)

// serveSize is the make-up of the serve-udp inputs.
type serveSize struct {
	setups      int // set-ups per run; setup_s is their median
	openFlows   int // open-loop flows, one report per 40 ms each
	closedFlows int // closed-loop flows
	burst       int // reports per closed-loop flow per burst
	checkFlows  int // open-loop flows replayed on a plain library
}

func serveSizes(o *options) serveSize {
	if o.short {
		return serveSize{setups: 1, openFlows: 50, closedFlows: 16, burst: 8, checkFlows: 4}
	}
	return serveSize{setups: 3, openFlows: 240, closedFlows: 64, burst: 32, checkFlows: 16}
}

// monitorInterval is the open-loop report period of every flow.
const monitorInterval = 40 * time.Millisecond

// latencyWindow is the window over which open-loop p50 and p99 are taken
// before the median over windows: at 6000 reports/s a window holds 1200
// samples, and it is short enough that a CPU stall of the host
// (tens of ms, every few hundred ms) misses most windows.
const latencyWindow = 0.2

// flowFailover is the client failover policy of every flow: the one the
// repository's load generator (mocc-bench -serve-addr) uses.
var flowFailover = transport.FailoverConfig{
	Timeout:     500 * time.Millisecond,
	Retries:     0,
	BackoffBase: 100 * time.Millisecond,
	BackoffMax:  time.Second,
}

// daemon is an in-process mocc-serve: the library, the rate server and its
// read loop, wired exactly as cmd/mocc-serve does with its default flags.
type daemon struct {
	met  *mocc.Metrics
	lib  *mocc.Library
	srv  *transport.RateServer
	done chan struct{}
}

// daemonOptions are mocc-serve's default serving flags, except
// -deadline 0. With the default 25 ms decision deadline, a stall of the
// host longer than that sheds queued decisions; under safe mode
// a shed decision is answered with the flow's previous rate, which the
// client cannot tell from a served one and which moves that flow off the
// unshed decision path for good. Sheds would then come and go with the
// host's stalls, not with the load. The queue bound (4096 per shard)
// still applies and cannot be reached with at most 241 reports in flight.
func daemonOptions() mocc.ServingOptions {
	return mocc.ServingOptions{
		IdleTTL: time.Minute,
		Canary:  &mocc.CanaryConfig{Window: 3 * time.Second, MaxFaultRate: 0.05},
	}
}

// daemonFaults sums the safe-mode faults of every app the daemon
// registered and returns the weights of the apps that had any: their
// reports got the guard's held or fallback rate, not the learned one.
func daemonFaults(lib *mocc.Library) (total int64, faulted []mocc.Weights) {
	for id, seen := 0, 0; seen < lib.Apps(); id++ {
		app, ok := lib.App(mocc.AppID(id))
		if !ok {
			continue
		}
		seen++
		if st := app.Stats(); st.Faults > 0 {
			total += st.Faults
			faulted = append(faulted, app.Weights())
		}
	}
	return total, faulted
}

func sameWeights(a, b mocc.Weights) bool {
	const eps = 1e-12
	return math.Abs(a.Thr-b.Thr) < eps && math.Abs(a.Lat-b.Lat) < eps && math.Abs(a.Loss-b.Loss) < eps
}

func startDaemon(model *mocc.Model) (*daemon, error) {
	met := mocc.NewMetrics()
	lib, err := mocc.New(model,
		mocc.WithServing(daemonOptions()),
		mocc.WithObservability(mocc.ObservabilityOptions{Metrics: met}))
	if err != nil {
		return nil, fmt.Errorf("serve: library: %w", err)
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		lib.Close()
		return nil, fmt.Errorf("serve: listen: %w", err)
	}
	d := &daemon{met: met, lib: lib, srv: transport.NewRateServer(lib, conn), done: make(chan struct{})}
	d.srv.RegisterMetrics(met)
	go func() {
		defer close(d.done)
		d.srv.Serve()
	}()
	return d, nil
}

// close tears the daemon down in mocc-serve's order: socket and session
// workers, then the library.
func (d *daemon) close() {
	d.srv.Close()
	<-d.done
	d.lib.Close()
}

// trainRun is one timed offline training.
type trainRun struct {
	model  *mocc.Model
	stats  mocc.TrainStats
	wall   time.Duration
	update time.Duration // sum of mocc_train_update_seconds
}

func train(opts mocc.TrainingOptions, rec *recorder) (*trainRun, error) {
	met := mocc.NewMetrics()
	opts.Metrics = met
	start := time.Now()
	rec.begin("mocc.TrainModelStats", 0)
	model, st, err := mocc.TrainModelStats(opts)
	rec.end()
	if err != nil {
		return nil, err
	}
	h := met.Registry().Histogram("mocc_train_update_seconds", "", 1e-9).Snapshot()
	return &trainRun{model: model, stats: st, wall: time.Since(start), update: time.Duration(h.Sum)}, nil
}

func (t *trainRun) addLayers(o *outcome) {
	o.addLayer("rl.update_s", "s", t.update.Seconds(), 0)
	o.addLayer("rl.collect_s", "s", (t.wall - t.update).Seconds(), 0)
	o.addLayer("train.env_steps", "count", float64(t.stats.EnvSteps), 0)
}

// flowTally accumulates one phase's per-report outcomes.
type flowTally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	lat       []timed // ms, served reports only
	bad       error   // first correctness violation
}

func (t *flowTally) merge(attempted, failed int64, lat []timed, bad error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += attempted
	t.failed += failed
	t.lat = append(t.lat, lat...)
	if t.bad == nil {
		t.bad = bad
	}
}

// flowLog is the exchange of one checked flow: what it sent and what the
// daemon answered.
type flowLog struct {
	w      mocc.Weights
	sent   []mocc.Status
	rates  []float64
	served []bool
}

// servedReport runs one ServeFlow.Report and reports whether the daemon
// answered it with a usable rate.
func servedReport(sf *transport.ServeFlow, prev *transport.ServeFlowStats, st mocc.Status, rec *recorder, req uint64) (float64, bool, error) {
	rec.begin("transport.ServeFlow.Report", req)
	rate, err := sf.Report(st)
	rec.end()
	if err != nil {
		return 0, false, err
	}
	now := sf.Stats()
	ok := now.Served > prev.Served
	*prev = now
	return rate, ok, nil
}

func runServe(o *options, tr *tracer) (*outcome, error) {
	sz := serveSizes(o)
	out := &outcome{}
	rec := tr.recorder(0)

	// Set-up: train the served model, start the daemon, dial the shared
	// client socket and get the first reply; repeated, median reported.
	var (
		setups []float64
		tr0    *trainRun
		d      *daemon
		conn   *transport.ServeConn
		flows  []*transport.ServeFlow
	)
	for i := 0; i < sz.setups; i++ {
		if d != nil {
			conn.Close()
			d.close()
		}
		start := time.Now()
		rec.begin("bench.setup", 0)
		opts := mocc.QuickTraining()
		opts.Seed = o.seed
		var err error
		if tr0, err = train(opts, rec); err != nil {
			return nil, fmt.Errorf("serve-udp: training: %w", err)
		}
		rec.begin("mocc.New", 0)
		d, err = startDaemon(tr0.model)
		rec.end()
		if err != nil {
			return nil, err
		}
		rec.begin("transport.DialServe", 0)
		conn, err = transport.DialServe(d.srv.Addr(), transport.ServeConnConfig{})
		rec.end()
		if err != nil {
			d.close()
			return nil, fmt.Errorf("serve-udp: dial: %w", err)
		}
		warm := conn.Flow(0, mocc.BalancedPreference, flowFailover)
		var prev transport.ServeFlowStats
		if _, ok, err := servedReport(warm, &prev, newStatusGen(o.seed).next(), rec, 0); err != nil || !ok {
			conn.Close()
			d.close()
			return nil, fmt.Errorf("serve-udp: daemon gave no first reply (err %v)", err)
		}
		flows = []*transport.ServeFlow{warm}
		rec.end()
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		conn.Close()
		d.close()
	}()
	out.addE2E("setup_s", "s", median(setups), len(setups))
	if tr != nil {
		tr0.addLayers(out)
	}

	openDur := time.Duration(0.5 * o.seconds * float64(time.Second))
	closedDur := time.Duration(0.4 * o.seconds * float64(time.Second))
	var mem memWindow
	rcvbuf0, rcvOK := udpRcvbufErrors()

	// Open loop: every flow sends one monitor interval every 40 ms from a
	// seeded phase, whatever the daemon does; latency runs from when the
	// report was due.
	rng := rand.New(rand.NewSource(o.seed))
	checked := map[int]*flowLog{}
	for _, f := range rng.Perm(sz.openFlows)[:sz.checkFlows] {
		checked[f+1] = &flowLog{}
	}
	var open flowTally
	var lateness []float64
	var lateMu sync.Mutex
	mem.begin(tr)
	phase := rec.begin("bench.open_loop", 0)
	t0 := time.Now().Add(20 * time.Millisecond)
	end := t0.Add(openDur)
	var wg sync.WaitGroup
	openFlows := make([]*transport.ServeFlow, sz.openFlows)
	for i := 0; i < sz.openFlows; i++ {
		id := i + 1
		frng := rand.New(rand.NewSource(o.seed*7919 + int64(id)))
		w := randomPref(frng)
		offset := time.Duration(frng.Int63n(int64(monitorInterval)))
		gen := newStatusGen(o.seed*1_000_003 + int64(id))
		sf := conn.Flow(uint64(id), w, flowFailover)
		openFlows[i] = sf
		log := checked[id]
		if log != nil {
			log.w = w
		}
		frec := tr.recorder(phase)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var attempted, failed int64
			var lat []timed
			var late []float64
			var bad error
			var prev transport.ServeFlowStats
			for k := 0; ; k++ {
				due := t0.Add(offset + time.Duration(k)*monitorInterval)
				if !due.Before(end) {
					break
				}
				sleepUntil(due)
				st := gen.next()
				late = append(late, ms(time.Since(due)))
				rate, ok, err := servedReport(sf, &prev, st, frec, uint64(id)<<32|uint64(k))
				done := time.Now()
				attempted++
				if err != nil {
					failed++
					continue
				}
				if !cc.ValidRate(rate) && bad == nil {
					bad = failCheck("serve.rate_envelope", "flow %d report %d: rate %v is not a finite rate inside [%v, %v]",
						id, k, rate, float64(cc.MinPacingRate), float64(cc.MaxPacingRate))
				}
				if ok {
					lat = append(lat, timed{due.Sub(t0).Seconds(), ms(done.Sub(due))})
				} else {
					failed++
				}
				if log != nil {
					log.sent = append(log.sent, st)
					log.rates = append(log.rates, rate)
					log.served = append(log.served, ok)
				}
			}
			open.merge(attempted, failed, lat, bad)
			lateMu.Lock()
			lateness = append(lateness, late...)
			lateMu.Unlock()
		}()
	}
	wg.Wait()
	rec.end()
	mem.end(open.attempted)
	if open.bad != nil {
		return nil, open.bad
	}
	flows = append(flows, openFlows...)
	p50, p99, windows := windowedPercentiles(open.lat, latencyWindow)
	out.addE2E("p50_ms", "ms", p50, len(open.lat))
	out.addInfo("p99_ms", "ms", p99, len(open.lat))
	fmt.Fprintf(o.log, "serve-udp open loop: %d flows, offered %.0f reports/s, %d reports, %d failed, %d latency windows, generator lateness p50 %.3f ms p99 %.3f ms (n=%d)\n",
		sz.openFlows, float64(sz.openFlows)/monitorInterval.Seconds(), open.attempted, open.failed, windows,
		quantile(lateness, 0.5), quantile(lateness, 0.99), len(lateness))

	// Closed loop: a fixed set of flows, each sending its next report when
	// its reply arrives, in bursts of a fixed report count.
	closed := make([]*transport.ServeFlow, sz.closedFlows)
	gens := make([]*statusGen, sz.closedFlows)
	prevs := make([]transport.ServeFlowStats, sz.closedFlows)
	recs := make([]*recorder, sz.closedFlows)
	for i := range closed {
		id := 1_000_000 + i
		frng := rand.New(rand.NewSource(o.seed*7919 + int64(id)))
		closed[i] = conn.Flow(uint64(id), randomPref(frng), flowFailover)
		gens[i] = newStatusGen(o.seed*1_000_003 + int64(id))
	}
	var cl flowTally
	var bursts, burstServed []float64
	mem.begin(tr)
	phase = rec.begin("bench.closed_loop", 0)
	for i := range recs {
		recs[i] = tr.recorder(phase)
	}
	closedStart := time.Now()
	for b := 0; time.Since(closedStart) < closedDur || b == 0; b++ {
		var served atomic.Int64
		bstart := time.Now()
		for i := range closed {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var failed, ok int64
				var bad error
				for k := 0; k < sz.burst; k++ {
					rate, answered, err := servedReport(closed[i], &prevs[i], gens[i].next(), recs[i], uint64(1_000_000+i)<<32|uint64(b*sz.burst+k))
					switch {
					case err != nil || !answered:
						failed++
					case !cc.ValidRate(rate):
						bad = failCheck("serve.rate_envelope", "closed-loop flow %d: rate %v outside the pacing envelope", i, rate)
					default:
						ok++
					}
				}
				served.Add(ok)
				cl.merge(int64(sz.burst), failed, nil, bad)
			}(i)
		}
		wg.Wait()
		bursts = append(bursts, time.Since(bstart).Seconds())
		burstServed = append(burstServed, float64(served.Load()))
	}
	rec.end()
	mem.end(cl.attempted)
	if cl.bad != nil {
		return nil, cl.bad
	}
	flows = append(flows, closed...)
	rate, windows := windowedRate(burstServed, bursts, 1)
	out.addE2E("rate_per_s", "1/s", rate, windows)
	out.addE2E("work_s", "s", median(bursts), len(bursts))
	fmt.Fprintf(o.log, "serve-udp closed loop: %d flows x %d reports per burst, %d bursts, %d reports, %d failed\n",
		sz.closedFlows, sz.burst, len(bursts), cl.attempted, cl.failed)

	// Client and daemon counters.
	var agg transport.ServeFlowStats
	for _, f := range flows {
		st := f.Stats()
		agg.Served += st.Served
		agg.Shed += st.Shed
		agg.Timeouts += st.Timeouts
		agg.Retries += st.Retries
		agg.Fallbacks += st.Fallbacks
	}
	// A session worker counts its reply after the write returns, so the
	// client may hold the last replies before the daemon has counted them.
	ds := d.srv.Stats()
	for wait := time.Now(); ds.Replies < agg.Served+agg.Shed && time.Since(wait) < time.Second; ds = d.srv.Stats() {
		time.Sleep(time.Millisecond)
	}
	ss := d.lib.ServingStats()
	faults, faulted := daemonFaults(d.lib)
	fmt.Fprintf(o.log, "serve-udp counters: served %d shed %d timeouts %d retries %d fallbacks %d | daemon replies %d dropped %d guard faults %d | engine reports %d batches %d shed queue %d deadline %d\n",
		agg.Served, agg.Shed, agg.Timeouts, agg.Retries, agg.Fallbacks, ds.Replies, ds.Dropped, faults,
		ss.Reports, ss.Batches, ss.ShedQueue, ss.ShedDeadline)
	if agg.Timeouts == 0 && ds.Replies != agg.Served+agg.Shed {
		return nil, failCheck("serve.replies_match", "daemon sent %d replies but clients took %d served + %d shed reports with no timeout",
			ds.Replies, agg.Served, agg.Shed)
	}

	out.attempted = 1 + open.attempted + cl.attempted
	// A report the daemon's guard faulted got no learned rate, though the
	// client saw a finite one.
	out.failed = open.failed + cl.failed + faults
	if ss.Batches > 0 {
		out.batchMean = float64(ss.Reports) / float64(ss.Batches)
	}

	// The served model, copied for the plain-library check and the replays.
	out.modelPath = filepath.Join(o.workdir, "serve-model.json")
	if err := d.lib.Model().Save(out.modelPath); err != nil {
		return nil, fmt.Errorf("serve-udp: saving model: %w", err)
	}
	for id, log := range checked {
		for _, w := range faulted {
			if sameWeights(w, log.w) {
				delete(checked, id)
			}
		}
	}
	if err := checkServedRates(out.modelPath, checked); err != nil {
		return nil, err
	}

	if tr != nil {
		addLayerPercentiles(out, "transport.flow_report_us", "us", tr.durations("transport.ServeFlow.Report"))
		out.addLayer("transport.timeouts", "count", float64(agg.Timeouts), 0)
		out.addLayer("transport.retries", "count", float64(agg.Retries), 0)
		out.addLayer("transport.fallbacks", "count", float64(agg.Fallbacks), 0)
		out.addLayer("transport.daemon_dropped", "count", float64(ds.Dropped), 0)
		addKernelDrops(o, out, rcvbuf0, rcvOK)
		addServeLayers(out, d)
		mem.report(out)
	}
	return out, nil
}

// addServeLayers reads the serving engine's counters from the daemon's
// library and obs registry.
func addServeLayers(out *outcome, d *daemon) {
	ss := d.lib.ServingStats()
	out.addLayer("serve.batch_size_mean", "count", float64(ss.Reports)/float64(max(ss.Batches, 1)), int(ss.Batches))
	h := d.met.Registry().Histogram("mocc_serve_decision_latency_seconds", "", 1e-9).Snapshot()
	out.addLayer("serve.decision_latency_us.p50", "us", float64(h.Quantile(0.5))/1e3, int(h.Count))
	out.addLayer("serve.decision_latency_us.p99", "us", float64(h.Quantile(0.99))/1e3, int(h.Count))
	out.addLayer("serve.shed", "count", float64(ss.Shed()), 0)
}

// checkServedRates replays each checked flow's wire-decoded status
// sequence on a separate plain library (no serving engine) built from the
// same weights, and requires every daemon-served rate to equal the plain
// library's rate bit for bit — WithServing's contract. Flows with a
// report the daemon did not serve are skipped (the daemon may have decided
// on a report whose reply never arrived), as are flows the daemon's guard
// faulted (the caller removes those).
func checkServedRates(modelPath string, flows map[int]*flowLog) error {
	model, err := mocc.LoadModelFile(modelPath)
	if err != nil {
		return fmt.Errorf("serve-udp: loading model copy: %w", err)
	}
	lib, err := mocc.New(model, mocc.WithoutAdaptation())
	if err != nil {
		return fmt.Errorf("serve-udp: plain library: %w", err)
	}
	pkt := make([]byte, datapath.WireReportBytes)
	compared, skipped := 0, 0
	for id, log := range flows {
		if len(log.sent) == 0 {
			continue
		}
		clean := true
		for _, ok := range log.served {
			clean = clean && ok
		}
		if !clean {
			skipped++
			continue
		}
		var app *mocc.App
		for k, st := range log.sent {
			datapath.EncodeReport(pkt, uint64(k), 0, datapath.WireReport{
				Flow: uint64(id), Thr: log.w.Thr, Lat: log.w.Lat, Loss: log.w.Loss,
				DurationNs: st.Duration.Nanoseconds(),
				Sent:       st.PacketsSent, Acked: st.PacketsAcked, Lost: st.PacketsLost,
				AvgRTTNs: st.AvgRTT.Nanoseconds(), MinRTTNs: st.MinRTT.Nanoseconds(),
			})
			_, _, rep, ok := datapath.DecodeReport(pkt)
			if !ok {
				return failCheck("serve.plain_library_identity", "flow %d report %d does not decode", id, k)
			}
			if app == nil {
				if app, err = lib.Register(mocc.Weights{Thr: rep.Thr, Lat: rep.Lat, Loss: rep.Loss}); err != nil {
					return fmt.Errorf("serve-udp: plain library register: %w", err)
				}
			}
			want, err := app.Report(mocc.Status{
				Duration:     time.Duration(rep.DurationNs),
				PacketsSent:  rep.Sent,
				PacketsAcked: rep.Acked,
				PacketsLost:  rep.Lost,
				AvgRTT:       time.Duration(rep.AvgRTTNs),
				MinRTT:       time.Duration(rep.MinRTTNs),
			})
			if err != nil {
				return fmt.Errorf("serve-udp: plain library report: %w", err)
			}
			if math.Float64bits(want) != math.Float64bits(log.rates[k]) {
				return failCheck("serve.plain_library_identity", "flow %d report %d: daemon served %v, plain library decides %v",
					id, k, log.rates[k], want)
			}
			compared++
		}
	}
	if compared == 0 {
		return failCheck("serve.plain_library_identity", "no checked flow was served without a miss (%d skipped)", skipped)
	}
	return nil
}
