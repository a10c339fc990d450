package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"danas/internal/exper"
	"danas/internal/obs"
)

// minReps is the fewest untraced repetitions a run medians over, however
// short --seconds is. setup_s medians over set-ups torn down unrun: at
// least minSetups, and as many as a tenth of --seconds allows.
const (
	minReps   = 3
	minSetups = 5
)

// profileHz is the traced repetition's CPU sampling rate. Linux checks
// CPU timers on its scheduler tick, so kernels built with HZ=250 sample
// no faster than this.
const profileHz = 250

func main() {
	name := flag.String("workload", "", "workload to run (fleet-fabric, odafs-zipf-read, nfs-writeback)")
	seed := flag.Uint64("seed", 1, "trace seed")
	seconds := flag.Float64("seconds", 10, "host seconds of untraced repetitions to measure")
	traced := flag.Int("trace", 0, "1 adds a traced repetition and reports the per-layer metrics")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "hostbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	var w *spec
	for _, s := range specs(1, *seed) {
		if s.name == *name {
			w = &s
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "hostbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	// One P: the simulation runs one process at a time, and at two Ps a
	// proc handoff can become a cross-core wake whose cost follows the
	// other core's load. On a 2-vCPU VM, five seeds of nfs-writeback
	// spread 17% in throughput at two Ps and 2% at one.
	runtime.GOMAXPROCS(1)
	exper.SetParallelism(1)

	res, err := measure(*w, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.report(*traced == 1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// hostRep is one untraced repetition's host-side cost.
type hostRep struct {
	run        time.Duration
	liveMB     float64
	mallocs    uint64
	allocBytes uint64
	gcs        uint64
}

// tracedRep is the traced repetition: the CPU split of its run and the
// simulated-clock phase split of its spans.
type tracedRep struct {
	run       time.Duration
	samples   map[string]int64
	nSamples  int64
	phaseMean [obs.NumPhases + 1]float64
	// wallMean is the mean span wall time; overlapMean the mean time a
	// span attributed beyond its wall, where phases on fanned-out
	// requests ran concurrently.
	wallMean, overlapMean float64
}

// result is everything one benchmark run measured.
type result struct {
	spec      spec
	attempted int64
	failed    int64
	problems  []string
	reps      []hostRep
	setups    []setupSplit
	out       simOut
	traced    *tracedRep
	table2    float64
	table3    float64
}

// measure times set-ups of w, then runs one warm-up repetition, then
// untraced repetitions until budget is spent (and at least minReps),
// then, when traced, one traced repetition and the model accuracy
// tables. Every repetition's
// simulated digest must match the first; a repetition that fails its
// checks counts its ops as failed.
func measure(w spec, budget time.Duration, traced bool) (*result, error) {
	r := &result{spec: w}
	base := runtime.NumGoroutine()
	var digest string
	// verify checks a finished repetition and returns its outputs.
	verify := func(c *cell, label string) simOut {
		out := c.collect()
		ops := int64(len(c.tr)) * int64(w.clients)
		r.attempted += ops
		bad := c.check()
		if bad == nil && digest != "" && out.digest() != digest {
			bad = fmt.Errorf("digest differs from the first repetition:\n  got  %s\n  want %s", out.digest(), digest)
		}
		if digest == "" {
			digest = out.digest()
		}
		if bad != nil {
			r.failed += ops
			r.problems = append(r.problems, fmt.Sprintf("%s: %v", label, bad))
		}
		return out
	}

	// Set-ups are timed on their own, torn down unrun, before any run has
	// grown the heap, so each starts from the same small heap; set-ups
	// timed after runs spread several times wider.
	for start := time.Now(); len(r.setups) < minSetups || time.Since(start) < budget/10; {
		c, err := assembleClean(w, false)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, c.setup)
		c.close(base)
		fmt.Fprintf(os.Stderr, "%s set-up %d: %.3fs\n", w.name, len(r.setups)-1, c.setup.wall.Seconds())
	}

	// Repetition -1 is a warm-up, checked but not timed: it grows the Go
	// heap to the workload's peak, so timed repetitions do not pay its
	// page faults.
	start := time.Now()
	for i := -1; len(r.reps) < minReps || time.Since(start) < budget; i++ {
		c, err := assembleClean(w, false)
		if err != nil {
			return nil, err
		}
		// Starting every run from a collected heap puts its GC cycles at
		// the same allocation points in every repetition.
		runtime.GC()
		var before, mid, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var rep hostRep
		rep.run = c.run(func() {
			runtime.GC()
			runtime.ReadMemStats(&mid)
			// After a full collection HeapAlloc is exactly the live
			// objects; HeapInuse would add span fragmentation, which
			// follows allocation history rather than the workload.
			rep.liveMB = float64(mid.HeapAlloc+mid.StackInuse) / (1 << 20)
		})
		runtime.ReadMemStats(&after)
		rep.mallocs = after.Mallocs - before.Mallocs
		rep.allocBytes = after.TotalAlloc - before.TotalAlloc
		// The midpoint collection is the benchmark's own.
		rep.gcs = uint64(after.NumGC-before.NumGC) - 1
		label := fmt.Sprintf("rep %d", i)
		if i < 0 {
			label = "warm-up"
		}
		r.out = verify(c, label)
		c.close(base)
		if i < 0 {
			start = time.Now()
			continue
		}
		r.reps = append(r.reps, rep)
		fmt.Fprintf(os.Stderr, "%s rep %d: run %.3fs live %.1fMB events %d\n",
			w.name, i, rep.run.Seconds(), rep.liveMB, r.out.events)
	}
	if !traced {
		return r, nil
	}

	c, err := assembleClean(w, true)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var prof bytes.Buffer
	// Raise the sampling rate above pprof's 100 Hz so a run of a second
	// or two still yields hundreds of samples; the runtime keeps this
	// rate and prints a warning when StartCPUProfile asks for 100 Hz.
	runtime.SetCPUProfileRate(profileHz)
	if err = pprof.StartCPUProfile(&prof); err != nil {
		c.close(base)
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	run := c.run(nil)
	pprof.StopCPUProfile()
	verify(c, "traced rep")
	tr := &tracedRep{run: run}
	var spans []*obs.Span
	for _, rc := range c.recs {
		spans = append(spans, rc.Spans()...)
	}
	c.close(base)
	if tr.samples, tr.nSamples, err = foldProfile(prof.Bytes()); err != nil {
		return nil, err
	}
	b := obs.Summarize(spans)
	tr.phaseMean = b.MeanMicros
	for _, sp := range spans {
		tr.wallMean += sp.Wall().Micros()
		tr.overlapMean += max(sp.Attributed()-sp.Wall(), 0).Micros()
	}
	if n := float64(len(spans)); n > 0 {
		tr.wallMean /= n
		tr.overlapMean /= n
	}
	r.traced = tr
	r.table2, r.table3 = modelErrors()
	return r, nil
}

// assembleClean collects the previous repetition's garbage, then
// assembles a fresh one.
func assembleClean(w spec, traced bool) (*cell, error) {
	runtime.GC()
	return w.assemble(traced)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// repMedian is the median over the untraced repetitions of f.
func (r *result) repMedian(f func(hostRep) float64) float64 {
	xs := make([]float64, len(r.reps))
	for i, rep := range r.reps {
		xs[i] = f(rep)
	}
	return median(xs)
}
