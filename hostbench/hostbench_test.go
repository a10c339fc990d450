package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"danas/internal/trace"
)

// tiny is the self-tests' workload size: every mechanism still armed,
// each repetition a few milliseconds.
const tiny = 0.02

// replay assembles and runs one repetition of w, checks it, and returns
// the finished cell (already closed).
func replay(t *testing.T, w spec, traced bool) *cell {
	t.Helper()
	base := runtime.NumGoroutine()
	c, err := w.assemble(traced)
	if err != nil {
		t.Fatal(err)
	}
	c.run(nil)
	c.close(base)
	if err := c.check(); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return c
}

func TestSameSeedSameDigest(t *testing.T) {
	for _, w := range specs(tiny, 7) {
		first := replay(t, w, false).collect().digest()
		if again := replay(t, w, false).collect().digest(); again != first {
			t.Errorf("%s: rerun digest differs:\n%s\n%s", w.name, first, again)
		}
		if traced := replay(t, w, true).collect().digest(); traced != first {
			t.Errorf("%s: traced digest differs:\n%s\n%s", w.name, first, traced)
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	a, b := specs(tiny, 1), specs(tiny, 2)
	for i := range a {
		if reflect.DeepEqual(trace.Generate(a[i].gen), trace.Generate(b[i].gen)) {
			t.Errorf("%s: seeds 1 and 2 generate the same trace", a[i].name)
		}
	}
}

// TestMechanisms pins which workload arms what: the fabric only on
// fleet-fabric, write-behind only on nfs-writeback, ORDMA only on
// odafs-zipf-read.
func TestMechanisms(t *testing.T) {
	for _, w := range specs(tiny, 3) {
		c := replay(t, w, false)
		o := c.collect()
		fabric := c.cl.Fab.Leaves() > 1
		wb := false
		for _, sh := range c.cl.Shards {
			wb = wb || sh.WB != nil
		}
		var ordma uint64
		for _, cc := range c.cached {
			ordma += cc.Stats().ORDMASuccesses
		}
		got := []bool{fabric, wb, ordma > 0}
		want := []bool{w.name == "fleet-fabric", w.name == "nfs-writeback", w.name == "odafs-zipf-read"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fabric/write-behind/ORDMA = %v, want %v", w.name, got, want)
		}
		if fabric && o.trunkUpPct <= 0 {
			t.Errorf("%s: fabric armed but the storage trunks carried nothing", w.name)
		}
		if wb && o.wbBlocksFlush <= 0 {
			t.Errorf("%s: write-behind armed but nothing was destaged", w.name)
		}
	}
}

// TestReportMatchesBenchmarkJSON checks that BENCHMARK.json names exactly
// the workloads this program runs and the metrics it prints, with their
// units, and that a small untraced run passes its checks.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range specs(1, 1) {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}

	w := specs(tiny, 5)[2]
	r, err := measure(w, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	units := func(m map[string]metric) []string {
		var s []string
		for k, v := range m {
			s = append(s, k+" "+v.Unit)
		}
		sort.Strings(s)
		return s
	}
	listed := func(ms []struct{ Name, Unit string }) []string {
		var s []string
		for _, m := range ms {
			s = append(s, m.Name+" "+m.Unit)
		}
		sort.Strings(s)
		return s
	}
	e2e := r.report(false)
	if got, want := units(e2e.Metrics), listed(bj.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
	}
	if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted == 0 {
		t.Errorf("untraced report: correct=%v attempted=%d failed=%d", e2e.Correct, e2e.Attempted, e2e.Failed)
	}
	if got, want := units(r.report(true).Metrics), listed(bj.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", got, want)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"danas/internal/sim.(*Scheduler).runUntil":                   "danas/internal/sim",
		"danas/internal/sim.(*Queue[go.shape.struct { a/b.c }]).Get": "danas/internal/sim",
		"danas/internal/core.(*Client).Read.func1":                   "danas/internal/core",
		"container/heap.Push":                                        "container/heap",
		"runtime.selectgo":                                           "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":               "internal/runtime/maps",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBucketOf(t *testing.T) {
	isLayer := map[string]bool{"sim": true}
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"danas/internal/sim.(*Proc).block"}, "sim"},
		{[]string{"danas/internal/lint.run"}, "other"},
		{[]string{"container/heap.up", "container/heap.Push"}, "container_heap"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject"}, "rt_alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "rt_gc"},
		{[]string{"runtime.futex", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "rt_gc"},
		{[]string{"runtime.lock2", "runtime.selectgo", "danas/internal/sim.(*Scheduler).wake"}, "rt_handoff"},
		{[]string{"runtime.memmove", "danas/internal/sim.foo"}, "rt_other"},
		{[]string{"fmt.Sprintf"}, "other"},
	} {
		if got := bucketOf(tc.stack, isLayer); got != tc.want {
			t.Errorf("bucketOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// TestFoldProfile profiles real replays and checks the fold conserves
// every sample and finds the simulator's kernel in it.
func TestFoldProfile(t *testing.T) {
	w := specs(tiny, 9)[0]
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		replay(t, w, false)
	}
	pprof.StopCPUProfile()
	buckets, total, err := foldProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no samples")
	}
	var sum int64
	valid := make(map[string]bool)
	for _, b := range cpuBuckets() {
		valid[b] = true
	}
	for b, n := range buckets {
		if !valid[b] {
			t.Errorf("sample bucket %q is not reported", b)
		}
		sum += n
	}
	if sum != total {
		t.Errorf("buckets hold %d samples, profile has %d", sum, total)
	}
	if buckets["sim"]+buckets["container_heap"]+buckets["rt_handoff"] == 0 {
		t.Errorf("no kernel samples in %v", buckets)
	}
}
