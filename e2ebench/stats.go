package main

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mocc"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowedRate groups consecutive intervals (counts[i] operations done in
// secs[i] seconds) into windows of at least window seconds and returns the
// median of the windows' rates, with the number of windows; a final
// partial window is dropped unless it is the only one.
func windowedRate(counts, secs []float64, window float64) (float64, int) {
	var rates []float64
	var n, t, allN, allT float64
	for i := range counts {
		n += counts[i]
		t += secs[i]
		allN += counts[i]
		allT += secs[i]
		if t >= window {
			rates = append(rates, n/t)
			n, t = 0, 0
		}
	}
	if len(rates) == 0 {
		return allN / allT, 1
	}
	return median(rates), len(rates)
}

// timed is one sample and when, in seconds into its phase, it was taken.
type timed struct{ at, v float64 }

// minPerWindow is the fewest samples a window needs for its p99 to have
// ten samples beyond it.
const minPerWindow = 1000

// windowedPercentiles splits samples into windows of the given length (s)
// and returns the median, over windows, of each window's p50 and p99, so a
// stall of the host that hits one window moves the figure
// little. Windows with fewer than minPerWindow samples are skipped; with
// no full window it falls back to the percentiles of all samples.
func windowedPercentiles(xs []timed, window float64) (p50, p99 float64, windows int) {
	byWin := map[int][]float64{}
	for _, x := range xs {
		w := int(x.at / window)
		byWin[w] = append(byWin[w], x.v)
	}
	var p50s, p99s []float64
	for _, vs := range byWin {
		if len(vs) >= minPerWindow {
			p50s = append(p50s, quantile(vs, 0.5))
			p99s = append(p99s, quantile(vs, 0.99))
		}
	}
	if len(p50s) == 0 {
		all := make([]float64, len(xs))
		for i, x := range xs {
			all[i] = x.v
		}
		return quantile(all, 0.5), quantile(all, 0.99), 0
	}
	return median(p50s), median(p99s), len(p50s)
}

// addLatency reports the median of samples (ms) as p50_ms and prints
// their p99 beside it.
func addLatency(o *outcome, xs []float64) {
	o.addE2E("p50_ms", "ms", quantile(xs, 0.5), len(xs))
	o.addInfo("p99_ms", "ms", quantile(xs, 0.99), len(xs))
}

func addLayerPercentiles(o *outcome, prefix, unit string, xs []float64) {
	o.addLayer(prefix+".p50", unit, quantile(xs, 0.5), len(xs))
	o.addLayer(prefix+".p99", unit, quantile(xs, 0.99), len(xs))
}

// memWindow measures allocation and GC activity over the measured phases
// of a traced pass (runtime.ReadMemStats around each phase).
type memWindow struct {
	bytes  uint64
	gcs    uint32
	ops    int64
	active bool
	start  runtime.MemStats
}

func (m *memWindow) begin(tr *tracer) {
	if tr == nil {
		return
	}
	runtime.ReadMemStats(&m.start)
	m.active = true
}

func (m *memWindow) end(ops int64) {
	if !m.active {
		return
	}
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	m.bytes += now.TotalAlloc - m.start.TotalAlloc
	m.gcs += now.NumGC - m.start.NumGC
	m.ops += ops
	m.active = false
}

func (m *memWindow) report(o *outcome) {
	o.addLayer("go.alloc_bytes_per_op", "B", float64(m.bytes)/float64(max(m.ops, 1)), int(m.ops))
	o.addLayer("go.gc_cycles", "count", float64(m.gcs), 0)
}

// udpRcvbufErrors reads the kernel's UDP receive-buffer drop counter from
// /proc/net/snmp (read only). ok is false where the counter is not
// readable.
func udpRcvbufErrors() (n int64, ok bool) {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	var header []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		for i, h := range header {
			if h == "RcvbufErrors" && i < len(fields) {
				v, err := strconv.ParseInt(fields[i], 10, 64)
				return v, err == nil
			}
		}
		return 0, false
	}
	return 0, false
}

// statusGen produces one flow's seeded synthetic monitor intervals: a
// 40 ms window with mild jitter in delivery, loss and RTT. Packet counts
// are whole packets, as a datapath counts them.
type statusGen struct{ rng *rand.Rand }

func newStatusGen(seed int64) *statusGen { return &statusGen{rand.New(rand.NewSource(seed))} }

func (g *statusGen) next() mocc.Status {
	sent := float64(40 + g.rng.Intn(21))
	lost := 0.0
	if g.rng.Float64() < 0.3 {
		lost = 1
	}
	return mocc.Status{
		Duration:     40 * time.Millisecond,
		PacketsSent:  sent,
		PacketsAcked: sent - lost,
		PacketsLost:  lost,
		AvgRTT:       time.Duration(40+g.rng.Float64()*15) * time.Millisecond,
		MinRTT:       40 * time.Millisecond,
	}
}

// randomPref draws a normalized preference vector.
func randomPref(rng *rand.Rand) mocc.Weights {
	a, b, c := rng.Float64()+0.05, rng.Float64()+0.05, rng.Float64()+0.05
	s := a + b + c
	return mocc.Weights{Thr: a / s, Lat: b / s, Loss: c / s}
}

// sleepUntil sleeps until t (no-op when t has passed).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
