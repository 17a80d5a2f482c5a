package main

import (
	"fmt"
	"slices"
	"time"

	"mocc/scenario"
)

// simSize is the make-up of the sim-suite inputs.
type simSize struct {
	perFamily  int // specs per single-link family
	parkingLot int
	incast     int // incast-10k specs
	setups     int
}

func simSizes(o *options) simSize {
	if o.short {
		return simSize{perFamily: 2, parkingLot: 1, incast: 1, setups: 1}
	}
	return simSize{perFamily: 170, parkingLot: 12, incast: 4, setups: 5}
}

// suite is the generated scenario set of one run.
type suite struct {
	single []*scenario.Spec
	multi  []*scenario.Spec
}

// generateSuite draws the run's scenarios: for each family, a fixed count
// of specs whose generator seeds derive from the workload seed.
func generateSuite(seed int64, sz simSize, rec *recorder) (*suite, error) {
	s := &suite{}
	gen := func(f scenario.Family, n int) ([]*scenario.Spec, error) {
		var out []*scenario.Spec
		for i := 0; i < n; i++ {
			rec.begin("scenario.Generate", 0)
			spec, err := scenario.Generate(f, seed*1000+int64(i))
			rec.end()
			if err != nil {
				return nil, fmt.Errorf("sim-suite: generating %s: %w", f, err)
			}
			out = append(out, spec)
		}
		return out, nil
	}
	for _, f := range scenario.Families() {
		specs, err := gen(f, sz.perFamily)
		if err != nil {
			return nil, err
		}
		s.single = append(s.single, specs...)
	}
	for _, f := range scenario.TopoFamilies() {
		n := sz.parkingLot
		if f == "incast-10k" {
			n = sz.incast
		}
		specs, err := gen(f, n)
		if err != nil {
			return nil, err
		}
		s.multi = append(s.multi, specs...)
	}
	return s, nil
}

func runSimSuite(o *options, tr *tracer) (*outcome, error) {
	sz := simSizes(o)
	out := &outcome{}
	rec := tr.recorder(0)

	// Set-up: generate the scenario set; repeated, median reported.
	var setups []float64
	var st *suite
	for i := 0; i < sz.setups; i++ {
		start := time.Now()
		rec.begin("bench.setup", 0)
		var err error
		if st, err = generateSuite(o.seed, sz, rec); err != nil {
			return nil, err
		}
		rec.end()
		setups = append(setups, time.Since(start).Seconds())
	}
	out.addE2E("setup_s", "s", median(setups), len(setups))

	// Every spec against the per-packet reference engine, untimed.
	rec.begin("bench.check", 0)
	for _, spec := range append(slices.Clone(st.single), st.multi...) {
		rec.begin("scenario.DiffEngines", 0)
		_, err := scenario.DiffEngines(spec, scenario.CompileOptions{})
		rec.end()
		if err != nil {
			return nil, failCheck("sim.diff_engines", "%v", err)
		}
	}
	rec.end()

	// Timed rounds: every spec through scenario.Run with the default
	// engine and worker count, whole rounds until the time is up. Each
	// figure is a median over rounds (or over specs of their median over
	// rounds), so a stall of the host during one round moves it
	// little.
	var (
		perKpkt    = make([][]float64, len(st.single)) // per spec: ms per 1000 simulated packets, per round
		roundRates []float64                           // single-link simulated packets per wall second
		roundWork  []float64                           // wall seconds to simulate one second of each topology family
		singlePkts int64
		singleWall float64
		// Per topology family, over all rounds: packets, wall and simulated seconds.
		topoPkts, topoWall, topoSim = map[string]float64{}, map[string]float64{}, map[string]float64{}
		rounds                      int
	)
	var mem memWindow
	mem.begin(tr)
	rec.begin("bench.rounds", 0)
	start := time.Now()
	for rounds = 0; rounds == 0 || time.Since(start).Seconds() < o.seconds; rounds++ {
		var pkts int64
		var wall float64
		for i, spec := range st.single {
			t := time.Now()
			rec.begin("scenario.Run", uint64(i))
			res, err := scenario.Run(spec, scenario.RunOptions{})
			rec.end()
			d := time.Since(t).Seconds()
			out.attempted++
			if err != nil {
				out.failed++
				continue
			}
			if rounds == 0 {
				if err := checkRunPhysics(spec, res); err != nil {
					return nil, err
				}
			}
			pk := sentPackets(res)
			pkts += pk
			wall += d
			perKpkt[i] = append(perKpkt[i], d*1e3/(float64(pk)/1e3))
		}
		roundRates = append(roundRates, float64(pkts)/wall)
		singlePkts += pkts
		singleWall += wall
		rw, rs := map[string]float64{}, map[string]float64{}
		for i, spec := range st.multi {
			t := time.Now()
			rec.begin("scenario.Run", uint64(len(st.single)+i))
			res, err := scenario.Run(spec, scenario.RunOptions{})
			rec.end()
			d := time.Since(t).Seconds()
			out.attempted++
			if err != nil {
				out.failed++
				continue
			}
			if rounds == 0 {
				if err := checkRunPhysics(spec, res); err != nil {
					return nil, err
				}
			}
			rw[spec.Family] += d
			rs[spec.Family] += res.DurationSec
			topoPkts[spec.Family] += float64(sentPackets(res))
			topoWall[spec.Family] += d
			topoSim[spec.Family] += res.DurationSec
		}
		var work float64
		for fam := range rw {
			work += rw[fam] / rs[fam]
		}
		roundWork = append(roundWork, work)
	}
	rec.end()
	mem.end(out.attempted)
	specMedians := make([]float64, 0, len(perKpkt))
	for _, xs := range perKpkt {
		if len(xs) > 0 {
			specMedians = append(specMedians, median(xs))
		}
	}
	addLatency(out, specMedians)
	out.addE2E("rate_per_s", "1/s", median(roundRates), rounds)
	out.addE2E("work_s", "s", median(roundWork), rounds)
	fmt.Fprintf(o.log, "sim-suite: %d single-link + %d topology specs, %d rounds, %d runs, %d failed; single-link %.3f Mpkts/s",
		len(st.single), len(st.multi), rounds, out.attempted, out.failed, float64(singlePkts)/singleWall/1e6)
	for _, f := range scenario.TopoFamilies() {
		fam := string(f)
		fmt.Fprintf(o.log, "; %s %.3f Mpkts/s, %.4f wall s per simulated s", fam, topoPkts[fam]/topoWall[fam]/1e6, topoWall[fam]/topoSim[fam])
	}
	fmt.Fprintln(o.log)

	if tr != nil {
		mem.report(out)
	}
	out.specs = append(st.single, st.multi...)
	return out, nil
}

// sentPackets totals the packets every flow, cross traffic included, sent.
func sentPackets(res *scenario.Result) int64 {
	var n int64
	for _, f := range res.Flows {
		n += int64(f.Sent)
	}
	for _, f := range res.Cross {
		n += int64(f.Sent)
	}
	return n
}

// checkRunPhysics checks a run's result against facts computed from the
// spec alone: no flow delivers or loses more than it sent, and no link
// delivers more than its peak capacity over the run.
func checkRunPhysics(spec *scenario.Spec, res *scenario.Result) error {
	flows := append(slices.Clone(res.Flows), res.Cross...)
	if len(res.Flows) != len(spec.Flows) || len(res.Cross) != len(spec.Cross) {
		return failCheck("sim.result_shape", "scenario %q: %d flows + %d cross in the result, %d + %d in the spec",
			spec.Name, len(res.Flows), len(res.Cross), len(spec.Flows), len(spec.Cross))
	}
	for _, f := range flows {
		if f.Delivered+f.Lost > f.Sent {
			return failCheck("sim.conservation", "scenario %q flow %q: delivered %d + lost %d > sent %d",
				spec.Name, f.Label, f.Delivered, f.Lost, f.Sent)
		}
	}
	pkt := spec.PktBytes
	if pkt == 0 {
		pkt = scenario.DefaultPktBytes
	}
	links := spec.Links
	if !spec.Topology() {
		links = []scenario.Link{spec.Link}
	}
	for _, l := range links {
		if l.TraceFile != "" {
			continue // capacity lives in the trace file, not the spec
		}
		peakMbps := l.CapacityMbps
		for _, lv := range l.Schedule {
			peakMbps = max(peakMbps, lv.Mbps)
		}
		peakPkts := peakMbps * 1e6 / 8 / float64(pkt)
		var delivered float64
		for i, f := range flows {
			if !spec.Topology() || slices.Contains(flowPath(spec, i), l.Name) {
				delivered += float64(f.Delivered)
			}
		}
		// One departure per 1/peak seconds, plus a packet in flight at
		// each end of the run.
		if limit := peakPkts*res.DurationSec*(1+1e-9) + 2; delivered > limit {
			return failCheck("sim.link_capacity", "scenario %q link %q: %v packets delivered, capacity %.0f pkts/s over %.3fs allows %.0f",
				spec.Name, l.Name, delivered, peakPkts, res.DurationSec, limit)
		}
	}
	return nil
}

// flowPath is the link path of result flow i (spec flows, then cross).
func flowPath(spec *scenario.Spec, i int) []string {
	if i < len(spec.Flows) {
		return spec.Flows[i].Path
	}
	return spec.Cross[i-len(spec.Flows)].Path
}
